package main

import (
	"fmt"
	"net"
	"time"

	"fedcdp/internal/accountant"
	"fedcdp/internal/core"
	"fedcdp/internal/dataset"
	"fedcdp/internal/dp"
	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// tracedRun and tracedSimnet assemble each workload from the public fl and
// simnet calls core.Run and core.RunSimnet make, and wrap every layer the
// round loops accept as an interface: the Strategy (fedCDP), the fault plan
// (tracedPlan), the Aggregator (tracedAgg), the listener and the dialers
// (tracedConn). cfg is the resolved config core returned in Result.Cfg.
// A traced run must reproduce the untraced run of the same seed; main
// checks that.

// tracedRun is core.Run on the traced layers.
func tracedRun(cfg core.Config, tr *recorder) (*fl.History, error) {
	spec, ds, plan, err := inputs(cfg)
	if err != nil {
		return nil, err
	}
	tp := tracedPlan{plan, tr}
	hist, err := fl.Run(fl.Config{
		Data:            ds,
		Model:           spec.ModelSpec(),
		K:               cfg.K,
		Kt:              cfg.Kt,
		Rounds:          cfg.Rounds,
		Round:           roundConfig(cfg),
		Codec:           cfg.Codec,
		Strategy:        fedCDP{clip: dp.FixedClip{C: cfg.Clip}, sigma: cfg.Sigma, tr: tr},
		Aggregation:     cfg.Aggregation,
		Shards:          cfg.Shards,
		TreeFanout:      cfg.TreeFanout,
		Sampler:         cfg.Sampler,
		Seed:            cfg.Seed,
		ValExamples:     cfg.ValExamples,
		EvalEvery:       cfg.EvalEvery,
		Parallelism:     cfg.Parallelism,
		ScheduleHorizon: cfg.PlannedRounds,
		Runtime:         cfg.Runtime,
		DropoutRate:     cfg.DropoutRate,
		RoundDeadline:   cfg.RoundDeadline,
		MinQuorum:       cfg.MinQuorum,
		Faults:          tp,
	})
	tr.endRound()
	if err != nil {
		return nil, err
	}
	// fl.Run folds in process, behind no interface the benchmark can wrap:
	// its fold counts come from the round stats.
	for _, rs := range hist.Rounds {
		tr.add(cUpdates, rs.Round, int64(rs.Clients))
		tr.add(cDispatched, rs.Round, int64(rs.Clients+rs.Dropped))
	}
	annotateEpsilon(cfg, spec, hist, fl.PopulationOf(cfg.K, tp), tr)
	return hist, nil
}

func inputs(cfg core.Config) (dataset.Spec, *dataset.Dataset, *simnet.Plan, error) {
	spec, err := dataset.Get(cfg.Dataset)
	if err != nil {
		return spec, nil, nil, err
	}
	part, err := cfg.Scenario.Partitioner()
	if err != nil {
		return spec, nil, nil, err
	}
	plan, err := bindPlan(cfg)
	if err != nil {
		return spec, nil, nil, err
	}
	return spec, dataset.NewPartitioned(spec, cfg.Seed, part), plan, nil
}

func roundConfig(cfg core.Config) fl.RoundConfig {
	return fl.RoundConfig{
		BatchSize:    cfg.BatchSize,
		LocalIters:   cfg.LocalIters,
		LR:           cfg.LR,
		TotalRounds:  cfg.Rounds,
		Scenario:     cfg.Scenario,
		Engine:       cfg.Engine,
		NoiseEngine:  cfg.NoiseEngine,
		Precision:    cfg.Precision,
		ConfigDigest: cfg.ConfigDigest,
	}
}

// annotateEpsilon recomputes each round's epsilon through the public
// accountant API the way core does for Fed-CDP: L sampled-Gaussian steps
// per committed round at q = B·kt/N, on one global accountant for a closed
// world and on per-user ledgers for an open one.
func annotateEpsilon(cfg core.Config, spec dataset.Spec, hist *fl.History, pop fl.Population, tr *recorder) {
	sigma := cfg.Sigma
	if cfg.AccountantSigma > 0 {
		sigma = cfg.AccountantSigma
	}
	rate := func(active int) float64 {
		kt := cfg.Kt
		if kt > active {
			kt = active
		}
		q := accountant.Params{TotalData: spec.TrainN, PerRoundKt: kt, BatchSize: cfg.BatchSize}.FedCDPSamplingRate()
		if q > 1 {
			q = 1
		}
		return q
	}
	if !pop.Dynamic() {
		q := rate(cfg.K)
		acc := accountant.New(cfg.Delta)
		for i := range hist.Rounds {
			s := tr.begin(lAccount, hist.Rounds[i].Round)
			if hist.Rounds[i].Committed {
				acc.Accumulate(q, sigma, cfg.LocalIters)
			}
			hist.Rounds[i].Epsilon, _ = acc.Epsilon()
			tr.end(s)
		}
		return
	}
	led := accountant.NewLedger(cfg.Delta)
	for i := range hist.Rounds {
		round := hist.Rounds[i].Round
		if hist.Rounds[i].Committed {
			active := pop.ActiveSet(round)
			q := rate(len(active))
			s := tr.begin(lAccount, round)
			for _, id := range active {
				led.Participate(id, q, sigma, cfg.LocalIters)
			}
			tr.end(s)
			tr.add(cParticipations, round, int64(len(active)))
		}
		s := tr.begin(lAccount, round)
		hist.Rounds[i].Epsilon, _, _ = led.MaxEpsilon()
		tr.end(s)
	}
}

const serverAddr = "server"

func clientHost(id int) string { return fmt.Sprintf("c%d", id) }
func edgeAddr(s int) string    { return fmt.Sprintf("edge%d", s) }

// tracedSimnet is core.RunSimnet on the traced layers: a flat deployment,
// one RPC client goroutine per cohort member, or for Shards ≥ 2 the edge
// tree driven by a ClientMux.
func tracedSimnet(cfg core.Config, tr *recorder) (*fl.History, error) {
	spec, ds, plan, err := inputs(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Shards == 1 {
		return nil, fmt.Errorf("the traced deployment has no flat exact (shards=1) topology")
	}
	d := &deployment{
		cfg:    cfg,
		spec:   spec,
		ds:     ds,
		plan:   plan,
		pop:    fl.PopulationOf(cfg.K, tracedPlan{plan, tr}),
		n:      simnet.New(cfg.Seed, plan),
		global: nn.Build(spec.ModelSpec(), tensor.Split(cfg.Seed, 1)),
		strat:  fedCDP{clip: dp.FixedClip{C: cfg.Clip}, sigma: cfg.Sigma, tr: tr},
		rcfg:   roundConfig(cfg),
		tr:     tr,
	}
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	valX, valY := ds.Validation(valN)
	defer d.close()
	if err := d.listen(); err != nil {
		return nil, err
	}
	if cfg.Shards > 0 {
		d.mux = &fl.ClientMux{
			Spec:       spec.ModelSpec(),
			Data:       ds,
			Strat:      d.strat,
			Seed:       cfg.Seed,
			Opt:        fl.ClientOptions{Codec: cfg.Codec},
			Adversary:  plan,
			Workers:    cfg.MuxWorkers,
			Population: d.pop,
		}
	}

	hist := &fl.History{Strategy: d.strat.Name()}
	for round := 0; round < cfg.Rounds; round++ {
		tr.startRound(round)
		d.n.SetRound(round)
		if plan.RestartServer(round) {
			d.close()
			if err := d.listen(); err != nil {
				return nil, fmt.Errorf("simnet restart before round %d: %w", round, err)
			}
		}
		s := tr.begin(lSample, round)
		cohort := fl.ActiveCohort(cfg.Seed, round, d.pop, cfg.Kt, cfg.Sampler, false)
		tr.end(s)
		rs := fl.RoundStats{Round: round, Active: d.pop.ActiveCount(round), Committed: 0 >= cfg.MinQuorum, Dropped: len(cohort)}
		wireBefore := d.n.BytesWritten()
		var err error
		if cfg.Shards > 0 {
			err = d.treeRound(round, cohort, &rs)
		} else {
			err = d.flatRound(round, cohort, &rs)
		}
		if err != nil {
			return nil, err
		}
		rs.WireBytes = d.n.BytesWritten() - wireBefore
		tr.add(cFabricBytes, round, rs.WireBytes)
		if round%evalEvery == 0 || round == cfg.Rounds-1 {
			s := tr.begin(lEval, round)
			rs.Accuracy = fl.Evaluate(d.global, valX, valY)
			tr.end(s)
			rs.Evaluated = true
		}
		hist.Rounds = append(hist.Rounds, rs)
	}
	tr.endRound()
	hist.Final = d.global
	annotateEpsilon(cfg, spec, hist, d.pop, tr)
	return hist, nil
}

// deployment is the server tier and the state that outlives a round.
type deployment struct {
	cfg    core.Config
	spec   dataset.Spec
	ds     *dataset.Dataset
	plan   *simnet.Plan
	pop    fl.Population
	n      *simnet.Net
	global *nn.Model
	strat  fedCDP
	rcfg   fl.RoundConfig
	mux    *fl.ClientMux
	tr     *recorder

	root     *fl.RoundServer
	agg      fl.Aggregator       // flat fold
	rootAgg  *fl.ExactAggregator // tree root fold
	edgeSrvs []*fl.RoundServer   // tree edges
	edgeAggs []*fl.ExactAggregator
}

func (d *deployment) server(addr string) (*fl.RoundServer, error) {
	ln, err := d.n.Listen(addr)
	if err != nil {
		return nil, err
	}
	srv := fl.NewRoundServerOn(tracedListener{ln, d.tr})
	srv.Clock = d.n.Clock()
	srv.Codec = d.cfg.Codec
	return srv, nil
}

// listen builds the server tier; a restart fault rebuilds it as one unit.
func (d *deployment) listen() error {
	var err error
	if d.root, err = d.server(serverAddr); err != nil {
		return err
	}
	if d.cfg.Shards == 0 {
		d.agg, err = fl.NewAggregator(d.cfg.Aggregation)
		return err
	}
	if d.rootAgg, err = fl.NewExact(d.cfg.Aggregation); err != nil {
		return err
	}
	d.edgeSrvs, d.edgeAggs = nil, nil
	for s := 0; s < d.cfg.Shards; s++ {
		srv, err := d.server(edgeAddr(s))
		if err != nil {
			return err
		}
		d.edgeSrvs = append(d.edgeSrvs, srv)
		agg, err := fl.NewExact(d.cfg.Aggregation)
		if err != nil {
			return err
		}
		d.edgeAggs = append(d.edgeAggs, agg)
	}
	return nil
}

func (d *deployment) close() {
	if d.root != nil {
		d.root.Close()
	}
	for _, s := range d.edgeSrvs {
		s.Close()
	}
}

func (d *deployment) linkChaos() bool { return d.plan.MsgDropRate > 0 || d.plan.DupRate > 0 }

func (d *deployment) dialer(host string) func(string) (net.Conn, error) {
	return tracedDial(d.n.Dialer(host), d.tr)
}

// flatRound serves one round of the flat deployment: every reachable
// cohort member is an RPC client goroutine against the one server.
func (d *deployment) flatRound(round int, cohort []int, rs *fl.RoundStats) error {
	cfg, plan, tr := d.cfg, d.plan, d.tr
	var reachable []int
	for _, id := range cohort {
		if !plan.Partitioned(round, clientHost(id), serverAddr) {
			reachable = append(reachable, id)
		}
	}
	if len(reachable) == 0 {
		return nil
	}
	tr.add(cDispatched, round, int64(len(reachable)))
	type clientOutcome struct {
		id      int
		planned bool
		err     error
	}
	outcomes := make(chan clientOutcome, len(reachable))
	for _, id := range reachable {
		go func(id int) {
			opt := fl.ClientOptions{Dial: d.dialer(clientHost(id)), Codec: cfg.Codec}
			if plan.CrashClient(round, id) || plan.DropUpdate(round, id) {
				_, err := fl.AbandonSession(serverAddr, opt)
				outcomes <- clientOutcome{id: id, planned: true, err: err}
				return
			}
			opt.Adversary = plan
			data := fl.AdversaryShard(plan, id, d.ds.Client(id))
			err := fl.RunRemoteClientOpts(serverAddr, id, d.strat, data, d.spec.ModelSpec(), cfg.Seed, opt)
			outcomes <- clientOutcome{id: id, err: err}
		}(id)
	}
	s := tr.begin(lServer, round)
	res, err := d.root.StreamRound(round, d.global.Params(), d.rcfg, tracedAgg{d.agg, tr}, fl.RoundOptions{
		Clients:   len(reachable),
		Deadline:  time.Hour,
		MinQuorum: cfg.MinQuorum,
	})
	tr.end(s)
	if err != nil {
		return fmt.Errorf("simnet round %d: %w", round, err)
	}
	for range reachable {
		o := <-outcomes
		if o.err != nil && !o.planned && !d.linkChaos() {
			return fmt.Errorf("simnet round %d client %d: %w", round, o.id, o.err)
		}
	}
	rs.Clients = res.Folded
	rs.Dropped = len(cohort) - res.Folded
	rs.Committed = res.Committed
	return nil
}

// treeRound serves one round of the edge tree: each shard's edge folds its
// members exactly and forwards one partial, and the root composes them.
func (d *deployment) treeRound(round int, cohort []int, rs *fl.RoundStats) error {
	cfg, plan, tr := d.cfg, d.plan, d.tr
	topo := fl.Topology{K: cfg.K, Shards: cfg.Shards}
	byShard := map[int][]int{}
	for _, id := range cohort {
		s := topo.ShardOf(id)
		if plan.Partitioned(round, edgeAddr(s), serverAddr) || plan.Partitioned(round, clientHost(id), edgeAddr(s)) {
			continue
		}
		byShard[s] = append(byShard[s], id)
	}
	var shards []int
	for s := 0; s < cfg.Shards; s++ {
		if len(byShard[s]) > 0 {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return nil
	}
	type outcome struct {
		res fl.RoundResult
		err error
	}
	rootCh := make(chan outcome, 1)
	rootAgg := d.rootAgg
	go func() {
		s := tr.begin(lServer, round)
		res, err := d.root.StreamRound(round, d.global.Params(), d.rcfg, tracedAgg{rootAgg, tr}, fl.RoundOptions{
			Clients:     len(shards),
			Deadline:    time.Hour,
			MinQuorum:   cfg.MinQuorum,
			QuorumCount: rootAgg.Count,
		})
		tr.end(s)
		rootCh <- outcome{res, err}
	}()

	type shardOutcome struct {
		shard int
		err   error
	}
	shardCh := make(chan shardOutcome, len(shards))
	var tasks []fl.MuxTask
	for _, sh := range shards {
		addr := edgeAddr(sh)
		members := byShard[sh]
		for _, id := range members {
			tasks = append(tasks, fl.MuxTask{
				ClientID: id,
				Addr:     addr,
				Dial:     d.dialer(clientHost(id)),
				Abandon:  plan.CrashClient(round, id) || plan.DropUpdate(round, id),
			})
		}
		go func(sh int, members []int) {
			srv, agg := d.edgeSrvs[sh], d.edgeAggs[sh]
			s := tr.begin(lServer, round)
			_, err := srv.StreamRound(round, d.global.Params(), d.rcfg, tracedAgg{fl.EdgeFold(agg), tr}, fl.RoundOptions{
				Clients:  len(members),
				Deadline: time.Hour,
			})
			tr.end(s)
			// The partial goes up even when the edge round failed, so the
			// root's session slot resolves.
			serr := fl.SendPartial(serverAddr, sh, round, agg.TakePartial(),
				fl.ClientOptions{Dial: d.dialer(edgeAddr(sh)), Codec: cfg.Codec})
			if err == nil {
				err = serr
			}
			shardCh <- shardOutcome{sh, err}
		}(sh, members)
	}
	tr.add(cDispatched, round, int64(len(tasks)))
	s := tr.begin(lMux, round)
	results := d.mux.RunRound(tasks)
	tr.end(s)
	var firstErr error
	for i, r := range results {
		if r.Err != nil && !tasks[i].Abandon && !d.linkChaos() && firstErr == nil {
			firstErr = fmt.Errorf("simnet round %d client %d: %w", round, r.ClientID, r.Err)
		}
	}
	for range shards {
		if o := <-shardCh; o.err != nil && !d.linkChaos() && firstErr == nil {
			firstErr = fmt.Errorf("simnet round %d shard %d: %w", round, o.shard, o.err)
		}
	}
	ro := <-rootCh
	if firstErr != nil {
		return firstErr
	}
	if ro.err != nil {
		return fmt.Errorf("simnet round %d: %w", round, ro.err)
	}
	rs.Clients = rootAgg.Count()
	rs.Dropped = len(cohort) - rs.Clients
	rs.Committed = ro.res.Committed
	return nil
}
