package simnet

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the fabric's virtual clock: it satisfies fl.Clock (Now/After)
// but never touches the wall — time only moves when an event moves it.
// Message deliveries advance it to their virtual arrival stamps (the
// discrete-event rule: a reader waiting for a future message jumps time to
// that message), and tests advance it explicitly to fire deadline timers.
// Because no component ever sleeps, a simnet run's wall-clock cost is pure
// compute regardless of the latency distribution it simulates.
type Clock struct {
	mu     sync.Mutex
	now    time.Time
	timers timerHeap
}

type clockTimer struct {
	at time.Time
	ch chan time.Time
}

// timerHeap is a min-heap of pending timers by deadline. Deadline timers
// that nothing ever fires (a round's time.Hour cap, say) accumulate over a
// run; keeping them ordered lets AdvanceTo, which runs on every fabric
// read, pop only the due ones instead of scanning them all.
type timerHeap []clockTimer

func (h timerHeap) Len() int           { return len(h) }
func (h timerHeap) Less(i, j int) bool { return h[i].at.Before(h[j].at) }
func (h timerHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)        { *h = append(*h, x.(clockTimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	tm := old[len(old)-1]
	old[len(old)-1] = clockTimer{} // drop the channel reference
	*h = old[:len(old)-1]
	return tm
}

// simEpoch is virtual t=0. Any fixed instant works; Unix zero keeps
// timestamps readable in logs.
var simEpoch = time.Unix(0, 0).UTC()

func newClock() *Clock { return &Clock{now: simEpoch} }

// Now returns the current virtual time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// After returns a channel that receives the virtual time once the clock
// reaches now+d. Non-positive d fires immediately.
func (c *Clock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if d <= 0 {
		ch <- c.now
		return ch
	}
	heap.Push(&c.timers, clockTimer{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves virtual time forward by d, firing every timer whose
// deadline it crosses.
func (c *Clock) Advance(d time.Duration) { c.AdvanceTo(c.Now().Add(d)) }

// AdvanceTo moves virtual time to t (monotone: earlier instants are
// ignored) and fires due timers. Sends are buffered, so firing never
// blocks the advancing goroutine.
func (c *Clock) AdvanceTo(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	for len(c.timers) > 0 && !c.timers[0].at.After(c.now) {
		heap.Pop(&c.timers).(clockTimer).ch <- c.now
	}
}
