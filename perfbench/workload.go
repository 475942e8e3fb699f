package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"math"

	"fedcdp/internal/config"
	"fedcdp/internal/core"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
)

//go:embed workloads/*.yaml
var docs embed.FS

// workload is one named federation. Its inputs are the config document in
// workloads/<name>.yaml with the seed replaced by --seed; one entry-point
// call runs the document's whole horizon.
type workload struct {
	name string
	// accFloor is the lowest final validation accuracy a correct run
	// reaches at any seed.
	accFloor float64
	// arrivalOrder marks the flat RPC deployment, whose arrival-order fold
	// is not bit-reproducible (see core.RunSimnet): its repeat check
	// compares per-round fold counts, commits, wire bytes and epsilon
	// instead of the final-model digest.
	arrivalOrder bool
}

var workloads = []workload{
	{name: "fedcdp-mnist", accFloor: 0.8},
	{name: "simnet-flat", accFloor: 0.9, arrivalOrder: true},
	{name: "simnet-tree", accFloor: 0.9},
	{name: "churn-10k", accFloor: 0.9},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// experiment parses and validates the workload's document with the seed
// replaced.
func (w workload) experiment(seed int64) (*config.Experiment, error) {
	doc, err := docs.ReadFile("workloads/" + w.name + ".yaml")
	if err != nil {
		return nil, err
	}
	e, err := config.Parse(doc)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	e.Seed = seed
	if err := e.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	return e, nil
}

// planSpec joins fault and population clauses the way core does: both
// share the simnet grammar and one (seed, rounds, K) binding.
func planSpec(cfg core.Config) string {
	switch {
	case cfg.Faults == "":
		return cfg.Population
	case cfg.Population == "":
		return cfg.Faults
	}
	return cfg.Faults + "," + cfg.Population
}

func bindPlan(cfg core.Config) (*simnet.Plan, error) {
	p, err := simnet.ParsePlan(planSpec(cfg))
	if err != nil {
		return nil, err
	}
	return p.Bind(cfg.Seed, cfg.Rounds, cfg.K)
}

// outcome is one entry-point call reduced to the values the checks read.
type outcome struct {
	rounds []fl.RoundStats
	digest uint64
	finite bool
	acc    float64
	eps    float64
}

func newOutcome(hist *fl.History) outcome {
	o := outcome{rounds: hist.Rounds, eps: hist.FinalEpsilon()}
	o.digest, o.finite = paramDigest(hist.Final)
	o.acc, _ = hist.FinalAccuracy()
	return o
}

// paramDigest is FNV-1a 64 over the IEEE bits of every final parameter,
// and whether all of them are finite.
func paramDigest(m *nn.Model) (uint64, bool) {
	h := fnv.New64a()
	finite := true
	var b [8]byte
	for _, t := range m.Params() {
		for _, v := range t.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				finite = false
			}
			bits := math.Float64bits(v)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64(), finite
}

// conservation checks that every cohort member of every round either
// folded or was removed by the fault plan, and returns the cohort-member
// rounds attempted. cohort size is min(Kt, active), the draw every runtime
// makes; planned removals are recounted from the bound plan.
func conservation(cfg core.Config, plan *simnet.Plan, o outcome) (int, error) {
	if len(o.rounds) != cfg.Rounds {
		return 0, fmt.Errorf("ran %d rounds, want %d", len(o.rounds), cfg.Rounds)
	}
	pop := fl.PopulationOf(cfg.K, plan)
	attempted := 0
	for _, rs := range o.rounds {
		cohort := cfg.Kt
		if rs.Active < cohort {
			cohort = rs.Active
		}
		attempted += cohort
		planned := 0
		if cfg.Faults != "" {
			for _, id := range fl.ActiveCohort(cfg.Seed, rs.Round, pop, cfg.Kt, cfg.Sampler, false) {
				if plan.CrashClient(rs.Round, id) || plan.DropUpdate(rs.Round, id) {
					planned++
				}
			}
		}
		if rs.Clients+rs.Dropped != cohort {
			return attempted, fmt.Errorf("round %d: folded %d + dropped %d != cohort %d", rs.Round, rs.Clients, rs.Dropped, cohort)
		}
		if rs.Dropped != planned {
			return attempted, fmt.Errorf("round %d: %d cohort members neither folded nor removed by the plan", rs.Round, rs.Dropped-planned)
		}
		if (rs.Clients >= cfg.MinQuorum) != rs.Committed {
			return attempted, fmt.Errorf("round %d: committed=%v with %d folded and quorum %d", rs.Round, rs.Committed, rs.Clients, cfg.MinQuorum)
		}
	}
	return attempted, nil
}

// validate checks one call's outputs on their own.
func (w workload) validate(o outcome) error {
	switch {
	case !o.finite:
		return fmt.Errorf("final parameters are not finite")
	case !(o.acc >= w.accFloor):
		return fmt.Errorf("final accuracy %.4f below the floor %.2f", o.acc, w.accFloor)
	case !(o.eps > 0) || math.IsInf(o.eps, 0):
		return fmt.Errorf("epsilon %v is not positive and finite", o.eps)
	}
	return nil
}

// same checks that two calls of one seed produced the same run.
func (w workload) same(a, b outcome) error {
	if a.eps != b.eps {
		return fmt.Errorf("epsilon %v != %v", a.eps, b.eps)
	}
	if !w.arrivalOrder {
		if a.digest != b.digest {
			return fmt.Errorf("final-model digest %016x != %016x", a.digest, b.digest)
		}
		return nil
	}
	if len(a.rounds) != len(b.rounds) {
		return fmt.Errorf("%d rounds != %d", len(a.rounds), len(b.rounds))
	}
	for i := range a.rounds {
		x, y := a.rounds[i], b.rounds[i]
		if x.Clients != y.Clients || x.Committed != y.Committed || x.WireBytes != y.WireBytes {
			return fmt.Errorf("round %d: folded/committed/wire %d/%v/%d != %d/%v/%d",
				i, x.Clients, x.Committed, x.WireBytes, y.Clients, y.Committed, y.WireBytes)
		}
	}
	return nil
}
