package core

import (
	"fmt"
	"time"

	"fedcdp/internal/fl"
	"fedcdp/internal/nn"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// simnetServerAddr is the root server's address on the fabric; clients are
// hosts "c<id>" and edge aggregators "edge<s>", the names the plan's
// partition clauses target.
const simnetServerAddr = "server"

func simnetClientHost(id int) string { return fmt.Sprintf("c%d", id) }

func simnetEdgeAddr(s int) string { return fmt.Sprintf("edge%d", s) }

// RunSimnet executes the configured experiment as a full deployment over
// the in-memory simnet fabric: a RoundServer on a fabric listener, every
// cohort member a real RPC client session dialing through the fault plan,
// and the plan realized at the transport level — crashed and drop-fated
// clients abandon their session mid-protocol (the server observes a failed
// session, exactly as over TCP), partitioned clients cannot dial at all,
// restarts tear the server tier down and rebind its addresses, and link
// latency/jitter/duplication run on virtual time.
//
// There is one deployment loop. Shards ≤ 1 is the flat deployment — the
// topology with zero edge tiers, where clients dial the root and the root
// folds their updates itself (Shards=0 with the configured float or robust
// rule, Shards=1 exactly). Shards ≥ 2 adds one edge aggregator per shard:
// each folds its range of the population into an exact partial sum and
// forwards one weight-carrying partial, and the root composes partials
// with the same exact arithmetic, so the committed parameters are
// bit-identical to the flat exact fold at any shard count. Clients always
// run on an fl.ClientMux: virtual-client state is data and Config.MuxWorkers
// goroutines are the only execution, so K=100,000 costs O(MuxWorkers)
// goroutines and model workspaces.
//
// Partition clauses match the hosts that actually talk: under a tree a
// clause naming "server" isolates EDGES from the root, while client links
// terminate at "edge<s>". Crash, drop and restart clauses are keyed by
// (round, client) and (round) and behave identically in every topology.
//
// The exact folds (Shards ≥ 1) replay bit for bit at any worker count. At
// MuxWorkers=1 the mux serves sessions one at a time in cohort order, so
// the flat float and robust folds (Shards=0) replay bit for bit too —
// final model, ε and per-round wire bytes across invocations and
// GOMAXPROCS (TestRunSimnetFlatBitReproducible). With several workers
// those folds see updates in arrival order: their final parameters may
// differ in the last bits, while the folded set, per-round counts,
// commits and ε stay deterministic.
//
// The deployment realizes what the plan and the wire protocol can express:
// DropoutRate, RoundDeadline and the barrier runtime have no transport
// realization here and are refused rather than silently ignored.
func RunSimnet(cfg Config) (*Result, error) {
	f, err := newFederation(cfg)
	if err != nil {
		return nil, err
	}
	if err := f.fl.Validate(); err != nil {
		return nil, err
	}
	cfg = f.cfg
	switch {
	case cfg.DropoutRate > 0:
		return nil, fmt.Errorf("core: simnet deployment cannot realize DropoutRate %v; express client loss as a drop= fault clause", cfg.DropoutRate)
	case cfg.RoundDeadline > 0:
		return nil, fmt.Errorf("core: simnet deployment cannot realize RoundDeadline %v; rounds wait for every session", cfg.RoundDeadline)
	case cfg.Runtime == fl.RuntimeBarrier:
		return nil, fmt.Errorf("core: simnet deployment cannot realize Runtime %q; the RPC server folds updates as they stream in", cfg.Runtime)
	}
	hist, err := f.deploy()
	if err != nil {
		return nil, err
	}
	return f.result(hist), nil
}

// simnetTier is the server side of a deployment: the root plus every edge,
// torn down and rebuilt as one unit on a restart fault.
type simnetTier struct {
	root     *fl.RoundServer
	rootAgg  fl.Aggregator
	edgeSrvs []*fl.RoundServer
	edgeAggs []*fl.ExactAggregator
}

func (t *simnetTier) close() {
	if t.root != nil {
		t.root.Close()
	}
	for _, s := range t.edgeSrvs {
		s.Close()
	}
}

// deploy is the deployment loop behind RunSimnet.
func (f *federation) deploy() (*fl.History, error) {
	cfg, plan, rcfg := f.cfg, f.plan, f.fl.Round
	n := simnet.New(cfg.Seed, plan)
	pop := fl.PopulationOf(cfg.K, plan)
	global := nn.Build(f.spec.ModelSpec(), tensor.Split(cfg.Seed, 1))
	valN := cfg.ValExamples
	if valN <= 0 {
		valN = 500
	}
	evalEvery := cfg.EvalEvery
	if evalEvery <= 0 {
		evalEvery = 1
	}
	valX, valY := f.fl.Data.Validation(valN)
	topo := fl.Topology{K: cfg.K, Shards: cfg.Shards}
	edges := cfg.Shards
	if edges <= 1 {
		edges = 0
	}
	// host is the address a client in shard s dials.
	host := func(s int) string {
		if edges == 0 {
			return simnetServerAddr
		}
		return simnetEdgeAddr(s)
	}

	listen := func(addr string) (*fl.RoundServer, error) {
		ln, err := n.Listen(addr)
		if err != nil {
			return nil, err
		}
		srv := fl.NewRoundServerOn(ln)
		srv.Clock = n.Clock()
		srv.Codec = cfg.Codec
		return srv, nil
	}
	newTier := func() (_ *simnetTier, err error) {
		t := &simnetTier{}
		defer func() {
			if err != nil {
				t.close()
			}
		}()
		if t.root, err = listen(simnetServerAddr); err != nil {
			return nil, err
		}
		if t.rootAgg, err = fl.NewAggregatorFor(cfg.Aggregation, min(cfg.Shards, 1), cfg.TreeFanout, cfg.K); err != nil {
			return nil, err
		}
		for s := 0; s < edges; s++ {
			srv, err := listen(simnetEdgeAddr(s))
			if err != nil {
				return nil, err
			}
			t.edgeSrvs = append(t.edgeSrvs, srv)
			agg, err := fl.NewExact(cfg.Aggregation)
			if err != nil {
				return nil, err
			}
			t.edgeAggs = append(t.edgeAggs, agg)
		}
		return t, nil
	}
	tier, err := newTier()
	if err != nil {
		return nil, err
	}
	defer func() { tier.close() }()

	// Under link-level chaos (message cuts, duplicate delivery) ANY session
	// may legitimately die mid-protocol — those deaths are the injected
	// fault, not a harness bug, so session errors are tolerated and show up
	// in the round accounting as failed sessions instead.
	linkChaos := plan.MsgDropRate > 0 || plan.DupRate > 0

	// One mux for the whole run: virtual-client cursors and worker
	// workspaces persist across rounds. Per-task dialers bind each session
	// to its client's host name so the plan's link streams key correctly.
	mux := &fl.ClientMux{
		Spec:       f.spec.ModelSpec(),
		Data:       f.fl.Data,
		Strat:      f.fl.Strategy,
		Seed:       cfg.Seed,
		Opt:        fl.ClientOptions{Codec: cfg.Codec},
		Adversary:  plan,
		Workers:    cfg.MuxWorkers,
		Population: pop,
	}

	hist := &fl.History{Strategy: f.fl.Strategy.Name()}
	for round := 0; round < cfg.Rounds; round++ {
		n.SetRound(round)
		if plan.RestartServer(round) {
			// Between-round restart, for real: the listeners close, every
			// parked session is refused, and a fresh tier rebinds the
			// addresses — the surface cmd/fedclient's reconnect loop rides.
			tier.close()
			if tier, err = newTier(); err != nil {
				return nil, fmt.Errorf("core: simnet restart before round %d: %w", round, err)
			}
		}

		// Route each cohort member to the host it dials, excluding members
		// that cannot reach it and shards whose edge cannot reach the root.
		// The orchestrator, unlike any server, is allowed to know who is
		// unreachable.
		cohort := fl.ActiveCohort(cfg.Seed, round, pop, cfg.Kt, cfg.Sampler, false)
		byShard := make([][]int, max(edges, 1))
		for _, id := range cohort {
			s := 0
			if edges > 0 {
				s = topo.ShardOf(id)
				if plan.Partitioned(round, simnetEdgeAddr(s), simnetServerAddr) {
					continue
				}
			}
			if !plan.Partitioned(round, simnetClientHost(id), host(s)) {
				byShard[s] = append(byShard[s], id)
			}
		}
		var tasks []fl.MuxTask
		var shards []int // edges with members this round
		for s, members := range byShard {
			if len(members) > 0 && edges > 0 {
				shards = append(shards, s)
			}
			for _, id := range members {
				tasks = append(tasks, fl.MuxTask{
					ClientID: id,
					Addr:     host(s),
					Dial:     n.Dialer(simnetClientHost(id)),
					Abandon:  plan.CrashClient(round, id) || plan.DropUpdate(round, id),
				})
			}
		}

		rs := fl.RoundStats{Round: round, Active: pop.ActiveCount(round), Committed: 0 >= cfg.MinQuorum, Dropped: len(cohort)}
		wireBefore := n.BytesWritten()
		if len(tasks) > 0 {
			// The deadlines are virtual and unreachable (every session
			// resolves, nothing advances the clock an hour): they exist so
			// session failures are counted instead of aborting the round —
			// the deployment contract.
			ropt := fl.RoundOptions{Clients: len(tasks), Deadline: time.Hour, MinQuorum: cfg.MinQuorum}
			var exact *fl.ExactAggregator
			if edges > 0 {
				// The root folds one partial per edge but commits on the
				// clients those partials carry.
				exact = tier.rootAgg.(*fl.ExactAggregator)
				ropt.Clients, ropt.QuorumCount = len(shards), exact.Count
			}
			type rootOutcome struct {
				res fl.RoundResult
				err error
			}
			type shardOutcome struct {
				shard int
				err   error
			}
			rootCh := make(chan rootOutcome, 1)
			root, rootAgg := tier.root, tier.rootAgg
			go func() {
				res, rerr := root.StreamRound(round, global.Params(), rcfg, rootAgg, ropt)
				rootCh <- rootOutcome{res, rerr}
			}()
			shardCh := make(chan shardOutcome, len(shards))
			for _, s := range shards {
				srv, agg, members := tier.edgeSrvs[s], tier.edgeAggs[s], len(byShard[s])
				go func(s int) {
					// MinQuorum 0: the edge never commits (EdgeFold's
					// Commit is a no-op); its round exists to fold.
					_, eerr := srv.StreamRound(round, global.Params(), rcfg, fl.EdgeFold(agg), fl.RoundOptions{
						Clients:  members,
						Deadline: time.Hour,
					})
					// Send even after a failed edge round: an empty partial
					// still resolves the root's session slot, so the round
					// cannot hang on a dead edge.
					serr := fl.SendPartial(simnetServerAddr, s, round, agg.TakePartial(),
						fl.ClientOptions{Dial: n.Dialer(simnetEdgeAddr(s)), Codec: cfg.Codec})
					if eerr != nil {
						serr = eerr
					}
					shardCh <- shardOutcome{shard: s, err: serr}
				}(s)
			}

			results := mux.RunRound(tasks)
			for i, r := range results {
				if r.Err != nil && !tasks[i].Abandon && !linkChaos {
					return nil, fmt.Errorf("core: simnet round %d client %d: %w", round, r.ClientID, r.Err)
				}
			}
			for range shards {
				o := <-shardCh
				if o.err != nil && !linkChaos {
					return nil, fmt.Errorf("core: simnet round %d shard %d: %w", round, o.shard, o.err)
				}
			}
			ro := <-rootCh
			if ro.err != nil {
				return nil, fmt.Errorf("core: simnet round %d: %w", round, ro.err)
			}
			rs.Clients = ro.res.Folded
			if exact != nil {
				rs.Clients = exact.Count()
			}
			rs.Dropped = len(cohort) - rs.Clients
			rs.Committed = ro.res.Committed
		}
		rs.WireBytes = n.BytesWritten() - wireBefore
		if round%evalEvery == 0 || round == cfg.Rounds-1 {
			rs.Accuracy = fl.Evaluate(global, valX, valY)
			rs.Evaluated = true
		}
		hist.Rounds = append(hist.Rounds, rs)
	}
	hist.Final = global
	return hist, nil
}
