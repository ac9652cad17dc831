//go:build !race

// Allocation counts differ under the race detector's instrumentation, so
// these regression pins only run in the plain test/CI lanes.

package engine

import (
	"testing"
	"time"
)

// publishAndDrain measures the pooled publish pipeline end to end for subs
// frame subscribers: stamp, encode-once, mirror reduction, and fan-out,
// with every delivered frame received and released (as ServeEventStream
// does) so the pool reaches steady state.
func publishAndDrain(t *testing.T, subs, iters int) float64 {
	t.Helper()
	e := New()
	defer e.Shutdown()

	chans := make([]<-chan *frame, subs)
	cancels := make([]func(), subs)
	for i := range chans {
		sub, cancel := e.bus.subscribeFrames(4)
		chans[i], cancels[i] = sub.ch, cancel
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	ev := Event{Strategy: "bench", Type: EventCheckExecuted, Time: time.Unix(1700000000, 0)}
	drain := func() {
		e.publish(nil, ev)
		for _, ch := range chans {
			f := <-ch
			_ = f.data()
			f.release()
		}
	}
	// Warm-up: fill the frame pool and grow the mirror's history slice to
	// its steady-state capacity (the history is trimmed in place once it
	// hits its cap, so growth stops).
	for i := 0; i < 5000; i++ {
		drain()
	}
	return testing.AllocsPerRun(iters, drain)
}

// The publish fan-out must be allocation-flat: delivering to 64 subscribers
// is pointer sends of one shared pooled frame, so per-event allocations may
// not grow with the subscriber count, and the absolute count stays at most
// one amortized allocation per event.
func TestPublishFanoutAllocationFlat(t *testing.T) {
	one := publishAndDrain(t, 1, 2000)
	many := publishAndDrain(t, 64, 2000)
	t.Logf("allocs/event: 1 subscriber=%.3f, 64 subscribers=%.3f", one, many)
	if many > one+0.5 {
		t.Fatalf("fan-out allocations grow with subscribers: %.3f (1 sub) vs %.3f (64 subs)", one, many)
	}
	if many > 1.0 {
		t.Fatalf("publish path allocates %.3f objects per event with 64 subscribers, want <= 1", many)
	}
}
