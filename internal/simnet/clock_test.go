package simnet

import (
	"math/rand"
	"testing"
	"time"
)

// TestClockTimersFireWhenCrossed arms timers in shuffled deadline order
// beside far-future ones and advances one step at a time: after each step,
// exactly the timers whose deadline was crossed have fired, each with the
// virtual time of the advance that crossed it, and the far-future timers
// stay pending.
func TestClockTimersFireWhenCrossed(t *testing.T) {
	c := newClock()
	const n, far = 64, 16
	chans := make([]<-chan time.Time, n)
	for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
		chans[i] = c.After(time.Duration(i+1) * time.Millisecond)
	}
	var pending []<-chan time.Time
	for i := 0; i < far; i++ {
		pending = append(pending, c.After(time.Hour+time.Duration(i)))
	}
	fired := make([]bool, n)
	for step := 0; step*3 < n; step++ { // each step crosses three deadlines
		c.Advance(3 * time.Millisecond)
		now := c.Now()
		for i, ch := range chans {
			if fired[i] {
				continue
			}
			due := !simEpoch.Add(time.Duration(i+1) * time.Millisecond).After(now)
			select {
			case got := <-ch:
				if !due {
					t.Fatalf("timer %d fired early, at %v", i, now.Sub(simEpoch))
				}
				if !got.Equal(now) {
					t.Fatalf("timer %d delivered %v, want the crossing advance's %v", i, got.Sub(simEpoch), now.Sub(simEpoch))
				}
				fired[i] = true
			default:
				if due {
					t.Fatalf("timer %d still pending at %v", i, now.Sub(simEpoch))
				}
			}
		}
	}
	for i, ok := range fired {
		if !ok {
			t.Fatalf("timer %d never fired", i)
		}
	}
	for i, ch := range pending {
		select {
		case <-ch:
			t.Fatalf("far-future timer %d fired", i)
		default:
		}
	}
	if got := len(c.timers); got != far {
		t.Fatalf("%d timers pending, want the %d far-future ones", got, far)
	}
}

// BenchmarkClockAdvanceTo is one fabric-read clock advance with 10,000
// never-due deadline timers pending — the load a long simnet run builds.
func BenchmarkClockAdvanceTo(b *testing.B) {
	c := newClock()
	for i := 0; i < 10000; i++ {
		c.After(time.Hour + time.Duration(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Advance(time.Nanosecond)
	}
}
