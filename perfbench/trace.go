package main

import (
	"errors"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedcdp/internal/fl"
	"fedcdp/internal/simnet"
	"fedcdp/internal/tensor"
)

// layer names one boundary the traced run times: a call into one module's
// public functions.
type layer int

const (
	lBatch     layer = iota // dataset: ClientData.Batch
	lPass                   // nn: Model.BatchPass
	lRecover                // nn: Model.ExampleGrads
	lStep                   // nn: Model.SGDStep and fl.Delta
	lEval                   // nn: fl.Evaluate
	lSanitize               // dp: SanitizeCounter
	lSample                 // fl: ActiveCohort
	lFold                   // fl: Aggregator Begin, Fold* and FoldPartial
	lCommit                 // fl: Aggregator Commit
	lMux                    // fl: ClientMux.RunRound
	lServer                 // fl: RoundServer.StreamRound
	lConnWrite              // fl: fabric connection Write, both sides
	lConnRead               // fl: fabric connection Read, both sides
	lActive                 // simnet: Plan.ClientActive
	lAccount                // accountant: Accumulate, Epsilon, Participate, MaxEpsilon
	lRound                  // core: one round, from its start to the next one's
	nLayers
)

// counter names a per-round count taken at a layer boundary.
type counter int

const (
	cExamples       counter = iota // examples materialized by ClientData.Batch
	cUpdates                       // client updates folded
	cPartials                      // edge partials folded
	cDispatched                    // cohort members handed to clients
	cWireBytes                     // bytes written on fabric connections
	cFabricBytes                   // simnet.Net.BytesWritten delta
	cParticipations                // per-user ledger participations charged
	nCounters
)

// span is one timed call. Times are nanoseconds since the recorder's
// origin; parent is the index of the enclosing round span, or -1.
type span struct {
	layer      layer
	round      int32
	parent     int32
	start, end int64
}

// recorder keeps spans in memory until the traced call ends, when tally
// folds them into per-layer totals. A nil recorder records nothing, so the
// instrumented code runs untraced too.
type recorder struct {
	origin time.Time
	cur    atomic.Int32 // round in progress
	mu     sync.Mutex
	spans  []span
	open   int32 // index of the open round span, or -1
	// closed is set by tally.fold: connection teardown that outlives the
	// call records nothing.
	closed bool
	counts [][nCounters]atomic.Int64
}

func newRecorder(rounds int) *recorder {
	return &recorder{origin: time.Now(), open: -1, counts: make([][nCounters]atomic.Int64, rounds)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span of layer l in round; round < 0 means the round in
// progress. It returns the span's handle for end.
func (r *recorder) begin(l layer, round int) int {
	if r == nil {
		return 0
	}
	if round < 0 {
		round = int(r.cur.Load())
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return -1
	}
	r.spans = append(r.spans, span{layer: l, round: int32(round), parent: r.open, start: t})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil || i < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	if !r.closed {
		r.spans[i].end = t
	}
	r.mu.Unlock()
}

// startRound closes the open round span, if any, and opens round's.
func (r *recorder) startRound(round int) {
	r.endRound()
	r.cur.Store(int32(round))
	t := r.now()
	r.mu.Lock()
	r.spans = append(r.spans, span{layer: lRound, round: int32(round), parent: -1, start: t})
	r.open = int32(len(r.spans) - 1)
	r.mu.Unlock()
}

func (r *recorder) endRound() {
	t := r.now()
	r.mu.Lock()
	if r.open >= 0 {
		r.spans[r.open].end = t
		r.open = -1
	}
	r.mu.Unlock()
}

// add counts n at counter c in round (< 0: the round in progress).
func (r *recorder) add(c counter, round int, n int64) {
	if r == nil {
		return
	}
	if round < 0 {
		round = int(r.cur.Load())
	}
	if round >= 0 && round < len(r.counts) {
		r.counts[round][c].Add(n)
	}
}

// tally is the traced run's per-layer record summed over its calls.
type tally struct {
	rounds int
	ns     [nLayers]int64 // summed span durations
	calls  [nLayers]int64 // span counts
	counts [nCounters]int64
	selfNs int64 // round time not covered by any other span
}

// fold adds the recorder's spans and counts into t. A round's self time is
// its duration minus what its child spans cover.
func (t *tally) fold(r *recorder) {
	r.endRound()
	r.mu.Lock()
	r.closed = true
	spans := r.spans
	r.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range spans {
		if s.end < s.start {
			continue // still open when the call returned
		}
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
		t.ns[s.layer] += s.end - s.start
		t.calls[s.layer]++
	}
	for i, s := range spans {
		if s.layer == lRound && s.end >= s.start {
			t.rounds++
			t.selfNs += (s.end - s.start) - covered(children[int32(i)], s.start, s.end)
		}
	}
	for i := range r.counts {
		for c := range r.counts[i] {
			t.counts[c] += r.counts[i][c].Load()
		}
	}
}

// covered returns how much of [lo, hi] the union of spans covers.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.start, s.end
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, endAt int64
	endAt = lo
	for _, v := range ivs {
		if v.a > endAt {
			endAt = v.a
		}
		if v.b > endAt {
			total += v.b - endAt
			endAt = v.b
		}
	}
	return total
}

// tracedPlan is a bound simnet.Plan that marks round starts (fl.Run calls
// RestartServer once at the top of every round) and times ClientActive.
// Every other method is the plan's own.
type tracedPlan struct {
	*simnet.Plan
	tr *recorder
}

func (p tracedPlan) RestartServer(round int) bool {
	p.tr.startRound(round)
	return p.Plan.RestartServer(round)
}

func (p tracedPlan) ClientActive(round, client int) bool {
	i := p.tr.begin(lActive, round)
	ok := p.Plan.ClientActive(round, client)
	p.tr.end(i)
	return ok
}

// tracedAgg times an Aggregator and counts its folds. It routes each fold
// exactly as the fl runtimes route into the wrapped aggregator: by client
// identity when it is a fl.ClientFolder, by weight when it is a
// fl.WeightedFolder.
type tracedAgg struct {
	inner fl.Aggregator
	tr    *recorder
}

func (a tracedAgg) Begin(params []*tensor.Tensor) {
	i := a.tr.begin(lFold, -1)
	a.inner.Begin(params)
	a.tr.end(i)
}

func (a tracedAgg) Fold(update []*tensor.Tensor) {
	i := a.tr.begin(lFold, -1)
	a.inner.Fold(update)
	a.tr.end(i)
	a.tr.add(cUpdates, -1, 1)
}

func (a tracedAgg) FoldWeighted(update []*tensor.Tensor, weight float64) {
	i := a.tr.begin(lFold, -1)
	if wf, ok := a.inner.(fl.WeightedFolder); ok {
		wf.FoldWeighted(update, weight)
	} else {
		a.inner.Fold(update)
	}
	a.tr.end(i)
	a.tr.add(cUpdates, -1, 1)
}

func (a tracedAgg) FoldClient(clientID int, update []*tensor.Tensor, weight float64) {
	cf, ok := a.inner.(fl.ClientFolder)
	if !ok {
		a.FoldWeighted(update, weight)
		return
	}
	i := a.tr.begin(lFold, -1)
	cf.FoldClient(clientID, update, weight)
	a.tr.end(i)
	a.tr.add(cUpdates, -1, 1)
}

func (a tracedAgg) FoldPartial(p *fl.Partial) error {
	pf, ok := a.inner.(fl.PartialFolder)
	if !ok {
		return errNoPartials
	}
	i := a.tr.begin(lFold, -1)
	err := pf.FoldPartial(p)
	a.tr.end(i)
	if err == nil {
		a.tr.add(cPartials, -1, 1)
	}
	return err
}

func (a tracedAgg) Count() int { return a.inner.Count() }

func (a tracedAgg) Commit(params []*tensor.Tensor) {
	i := a.tr.begin(lCommit, -1)
	a.inner.Commit(params)
	a.tr.end(i)
}

var errNoPartials = errors.New("aggregator does not fold partials")

// tracedConn times a fabric connection's reads and writes and counts the
// bytes written.
type tracedConn struct {
	net.Conn
	tr *recorder
}

func (c tracedConn) Read(p []byte) (int, error) {
	i := c.tr.begin(lConnRead, -1)
	n, err := c.Conn.Read(p)
	c.tr.end(i)
	return n, err
}

func (c tracedConn) Write(p []byte) (int, error) {
	i := c.tr.begin(lConnWrite, -1)
	n, err := c.Conn.Write(p)
	c.tr.end(i)
	c.tr.add(cWireBytes, -1, int64(n))
	return n, err
}

type tracedListener struct {
	net.Listener
	tr *recorder
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tracedConn{c, l.tr}, nil
}

func tracedDial(d func(string) (net.Conn, error), tr *recorder) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := d(addr)
		if err != nil {
			return nil, err
		}
		return tracedConn{c, tr}, nil
	}
}
