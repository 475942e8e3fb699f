package main

import (
	"math"
	"testing"

	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// TestFedCDPMatchesCore pins the traced run's client step bit-identical to
// core.FedCDP.ClientUpdate, traced or not, on the CNN and the MLP.
func TestFedCDPMatchesCore(t *testing.T) {
	const seed, round, client = 7, 3, 5
	for _, name := range []string{"cancer", "mnist"} {
		spec, err := dataset.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.New(spec, seed)
		global := nn.Build(spec.ModelSpec(), tensor.Split(seed, 1))
		update := func(s fl.Strategy) ([]*tensor.Tensor, fl.ClientStats) {
			m := nn.Build(spec.ModelSpec(), tensor.NewRNG(0))
			m.SetParams(global.Params())
			noise := fl.ClientNoise(seed, round, client)
			return s.ClientUpdate(&fl.ClientEnv{
				ClientID: client,
				Round:    round,
				Model:    m,
				Data:     data.Client(client),
				RNG:      tensor.Split(seed, 4, round, client),
				Cfg:      fl.RoundConfig{BatchSize: spec.BatchSize, LocalIters: 3, LR: spec.LR, TotalRounds: 10},
				Arena:    tensor.NewArena(),
				Noise:    &noise,
			})
		}
		want, wantStats := update(core.NewFedCDP(4, 0.06))
		for _, tr := range []*recorder{nil, newRecorder(10)} {
			got, gotStats := update(fedCDP{clip: dp.FixedClip{C: 4}, sigma: 0.06, tr: tr})
			if len(got) != len(want) {
				t.Fatalf("%s: %d update tensors, want %d", name, len(got), len(want))
			}
			for i := range want {
				g, w := got[i].Data(), want[i].Data()
				for j := range w {
					if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
						t.Fatalf("%s traced=%v: tensor %d element %d = %v, want %v", name, tr != nil, i, j, g[j], w[j])
					}
				}
			}
			if gotStats.MeanGradNorm != wantStats.MeanGradNorm || gotStats.Iters != wantStats.Iters {
				t.Fatalf("%s: stats %+v, want %+v", name, gotStats, wantStats)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 4}, {start: 2, end: 6}, {start: 8, end: 9}, {start: 12, end: 20}}
	if got := covered(spans, 1, 14); got != 5+1+2 {
		t.Fatalf("covered = %d, want 8", got)
	}
	if got := covered(nil, 0, 10); got != 0 {
		t.Fatalf("covered(nil) = %d, want 0", got)
	}
}
