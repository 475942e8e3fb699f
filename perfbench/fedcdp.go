package main

import (
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/tensor"
)

// examplePurpose is the Derive label core.FedCDP gives the per-example
// sanitize streams under a client's counter noise key.
const examplePurpose = 1

// fedCDP is the traced run's client step: Fed-CDP on the batched engine and
// the counter noise engine, built from the public calls core.FedCDP makes,
// with a span around each call. TestFedCDPMatchesCore pins its updates
// bit-identical to core.FedCDP.ClientUpdate.
type fedCDP struct {
	clip  dp.ClipPolicy
	sigma float64
	tr    *recorder
}

func (f fedCDP) Name() string { return "fed-cdp" }

func (f fedCDP) ServerSanitize(int, [][]*tensor.Tensor, *tensor.RNG) {}

func (f fedCDP) ClientUpdate(env *fl.ClientEnv) ([]*tensor.Tensor, fl.ClientStats) {
	start := time.Now()
	tr, round := f.tr, env.Round
	c := f.clip.Bound(env.Round, env.Cfg.TotalRounds)
	noise := *env.Noise
	model, arena := env.Model, env.Arena
	model.UseArena(arena)
	global := tensor.CloneAll(model.Params())
	bs := env.Cfg.BatchSize

	batch := arenaLike(arena, model.Grads())
	defer arena.Put(batch...)
	bufs := make([][]*tensor.Tensor, bs)
	for i := range bufs {
		bufs[i] = arenaLike(arena, model.Grads())
	}
	defer func() {
		for _, b := range bufs {
			arena.Put(b...)
		}
	}()
	preNorms := make([]float64, bs)
	var normSum float64
	var normN int

	for l := 0; l < env.Cfg.LocalIters; l++ {
		xs, ys := tracedBatch(tr, round, env.Data, l, bs)
		for _, t := range batch {
			t.Zero()
		}
		i := tr.begin(lPass, round)
		model.BatchPass(xs, ys)
		tr.end(i)
		iter := l
		job := dp.BatchSanitizeJob{
			N: len(xs),
			Recover: func(e int, dst []*tensor.Tensor) {
				i := tr.begin(lRecover, round)
				model.ExampleGrads(e, dst)
				tr.end(i)
			},
			Sanitize: func(e int, g []*tensor.Tensor) {
				i := tr.begin(lSanitize, round)
				dp.SanitizeCounter(g, c, f.sigma, noise.Derive(examplePurpose, int64(iter), int64(e)))
				tr.end(i)
			},
			Bufs:   bufs,
			Accum:  batch,
			Weight: 1 / float64(len(xs)),
		}
		if l == 0 {
			job.PreNorms = preNorms
		}
		dp.SanitizeBatch(job)
		if l == 0 {
			for _, n := range preNorms[:len(xs)] {
				normSum += n
			}
			normN += len(xs)
		}
		i = tr.begin(lStep, round)
		model.SGDStep(env.Cfg.LR, batch)
		tr.end(i)
	}
	i := tr.begin(lStep, round)
	delta := fl.Delta(model.Params(), global)
	tr.end(i)

	stats := fl.ClientStats{Iters: env.Cfg.LocalIters, Duration: time.Since(start)}
	if normN > 0 {
		stats.MeanGradNorm = normSum / float64(normN)
	}
	return delta, stats
}

func tracedBatch(tr *recorder, round int, data *dataset.ClientData, b, bs int) ([]*tensor.Tensor, []int) {
	i := tr.begin(lBatch, round)
	xs, ys := data.Batch(b, bs)
	tr.end(i)
	tr.add(cExamples, round, int64(len(xs)))
	return xs, ys
}

// arenaLike draws zeroed tensors shaped like ts from the arena.
func arenaLike(a *tensor.Arena, ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = a.Get(t.Shape()...)
	}
	return out
}
