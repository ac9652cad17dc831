package federation

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/metrics"
	"bifrost/internal/sketch"
)

// captureSink records shipped batches and can fail on demand.
type captureSink struct {
	mu      sync.Mutex
	batches []metrics.DeltaBatch
	fail    bool
	store   *metrics.Store // optional: apply to a store like the real endpoint
	// ackLost: apply to the store but still report failure, modelling a
	// delivery whose acknowledgement never came back.
	ackLost bool
}

func (c *captureSink) ShipDelta(_ context.Context, b metrics.DeltaBatch) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail && !c.ackLost {
		return errors.New("sink down")
	}
	if c.store != nil {
		if _, err := c.store.ApplyDelta(b); err != nil {
			return err
		}
	}
	if c.ackLost {
		return errors.New("ack lost")
	}
	c.batches = append(c.batches, b)
	return nil
}

func (c *captureSink) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.batches)
}

var testBase = time.Unix(1_700_000_000, 0)

func TestAgentClosesOnlyElapsedBuckets(t *testing.T) {
	clk := clock.NewManual(testBase)
	sink := &captureSink{}
	a := New("r1", sink, WithClock(clk), WithBucketWidth(time.Second))

	a.Observe("lat_ms", metrics.Labels{"service": "s"}, 10)
	clk.Advance(500 * time.Millisecond)
	a.Observe("lat_ms", metrics.Labels{"service": "s"}, 20)

	// The current bucket has not elapsed: nothing ships.
	if n := a.Flush(context.Background()); n != 0 {
		t.Fatalf("pending after premature flush: %d", n)
	}
	if sink.count() != 0 {
		t.Fatalf("open bucket was shipped early")
	}

	clk.Advance(time.Second) // now ≥ bucket end + width
	a.Flush(context.Background())
	if sink.count() != 1 {
		t.Fatalf("expected 1 batch, got %d", sink.count())
	}
	b := sink.batches[0]
	if b.Seq != 1 || b.Replica != "r1" || len(b.Buckets) != 1 {
		t.Fatalf("unexpected batch %+v", b)
	}
	d := b.Buckets[0]
	if d.Count != 2 || d.Sum != 30 || d.Min != 10 || d.Max != 20 {
		t.Fatalf("bucket stats %+v", d)
	}
	if d.Sketch == nil || d.Sketch.Count != 2 {
		t.Fatalf("bucket missing sketch: %+v", d.Sketch)
	}
}

func TestAgentRetryBackoffThenDrain(t *testing.T) {
	clk := clock.NewManual(testBase)
	store := metrics.NewStore(metrics.WithClock(clk))
	sink := &captureSink{store: store, fail: true}
	a := New("r1", sink, WithClock(clk),
		WithBackoff(200*time.Millisecond, 5*time.Second))

	for i := 0; i < 3; i++ {
		a.Observe("lat_ms", nil, float64(100+i))
		clk.Advance(time.Second)
	}
	clk.Advance(time.Second)
	if n := a.Flush(context.Background()); n != 1 {
		t.Fatalf("want 1 pending batch while sink down, got %d", n)
	}
	// Within backoff: flush must not hammer the sink.
	a.Flush(context.Background())
	sink.mu.Lock()
	sink.fail = false
	sink.mu.Unlock()
	if n := a.Flush(context.Background()); n != 1 {
		t.Fatalf("flush inside backoff window should not ship (pending=%d)", n)
	}
	clk.Advance(time.Second) // past the 200ms..400ms backoff
	if n := a.Flush(context.Background()); n != 0 {
		t.Fatalf("queue not drained after recovery: %d", n)
	}
	cnt, err := store.WindowAggregate("count_over_time", 0, "lat_ms", nil, time.Hour, clk.Now())
	if err != nil || cnt != 3 {
		t.Fatalf("store count %v err %v", cnt, err)
	}
}

// TestAgentAckLostNoDoubleCount: the store applies a batch whose ack is
// lost; the agent retries it and the store's dedup keeps totals exact.
func TestAgentAckLostNoDoubleCount(t *testing.T) {
	clk := clock.NewManual(testBase)
	store := metrics.NewStore(metrics.WithClock(clk))
	sink := &captureSink{store: store, ackLost: true}
	a := New("r1", sink, WithClock(clk), WithBackoff(time.Millisecond, time.Millisecond))

	a.Observe("lat_ms", nil, 42)
	clk.Advance(2 * time.Second)
	if n := a.Flush(context.Background()); n != 1 {
		t.Fatalf("batch should stay pending on lost ack (pending=%d)", n)
	}
	sink.mu.Lock()
	sink.ackLost = false
	sink.mu.Unlock()
	clk.Advance(time.Second)
	if n := a.Flush(context.Background()); n != 0 {
		t.Fatalf("retry did not drain: %d", n)
	}
	cnt, err := store.WindowAggregate("count_over_time", 0, "lat_ms", nil, time.Hour, clk.Now())
	if err != nil || cnt != 1 {
		t.Fatalf("double count after lost ack: count=%v err=%v", cnt, err)
	}
}

func TestAgentBoundedQueue(t *testing.T) {
	clk := clock.NewManual(testBase)
	sink := &captureSink{fail: true}
	a := New("r1", sink, WithClock(clk), WithMaxPending(3))
	for i := 0; i < 6; i++ {
		a.Observe("lat_ms", nil, float64(i))
		clk.Advance(2 * time.Second)
		a.Flush(context.Background())
	}
	if n := a.Pending(); n != 3 {
		t.Fatalf("pending %d, want bound 3", n)
	}
	if a.Dropped() == 0 {
		t.Fatal("expected dropped batches to be counted")
	}
}

func TestAgentRegistryGather(t *testing.T) {
	clk := clock.NewManual(testBase)
	store := metrics.NewStore(metrics.WithClock(clk))
	sink := &captureSink{store: store}
	reg := metrics.NewRegistry()
	a := New("r1", sink, WithClock(clk), WithRegistry(reg))

	c := reg.Counter("proxy_requests_total", metrics.Labels{"service": "s", "version": "v2"})
	for flush := 0; flush < 4; flush++ {
		for i := 0; i < 5; i++ {
			c.Inc()
		}
		clk.Advance(2 * time.Second)
		a.Flush(context.Background())
	}
	clk.Advance(2 * time.Second)
	a.Flush(context.Background()) // ships the last closed bucket

	inc, err := store.WindowAggregate("increase", 0, "proxy_requests_total",
		[]metrics.LabelMatch{{Name: "replica", Value: "r1"}}, time.Hour, clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	// First gathered value (5) counts as the series' starting point; the
	// three later gathers add 5 each.
	if inc != 15 {
		t.Fatalf("federated counter increase %v, want 15", inc)
	}
	v, err := store.InstantValue("proxy_requests_total", nil, "sum", clk.Now())
	if err != nil || v != 20 {
		t.Fatalf("instant cumulative value %v err %v, want 20", v, err)
	}
}

// duplicatingSink ships every batch twice, modelling aggressive
// at-least-once redelivery over the real HTTP endpoint.
type duplicatingSink struct{ inner DeltaSink }

func (d duplicatingSink) ShipDelta(ctx context.Context, b metrics.DeltaBatch) error {
	if err := d.inner.ShipDelta(ctx, b); err != nil {
		return err
	}
	return d.inner.ShipDelta(ctx, b)
}

// TestFleetE2E is the acceptance e2e: three proxy agents shipping deltas
// over HTTP to one federating store; one agent restarts mid-run (new
// incarnation); one agent's deliveries are all duplicated. The fleet p99
// from merged sketches must be within the sketch's documented relative
// error of the exact quantile over all raw samples, and counts must be
// exact (nothing lost, nothing double-counted).
func TestFleetE2E(t *testing.T) {
	store := metrics.NewStore()
	srv := httptest.NewServer(metrics.NewServer(store).Handler())
	defer srv.Close()
	sink := HTTPSink{Client: &metrics.Client{BaseURL: srv.URL}}

	rng := rand.New(rand.NewSource(21))
	labels := metrics.Labels{"service": "search"}
	var all []float64
	ctx := context.Background()

	observe := func(a *Agent, clk *clock.Manual, n int) {
		for i := 0; i < n; i++ {
			v := math.Exp(4 + 0.6*rng.NormFloat64()) // lognormal latencies
			all = append(all, v)
			a.Observe("upstream_ms", labels, v)
			clk.Advance(25 * time.Millisecond)
		}
	}
	drain := func(a *Agent, clk *clock.Manual) {
		clk.Advance(2 * time.Second)
		if n := a.Flush(ctx); n != 0 {
			t.Fatalf("agent %s left %d pending batches", a.replica, n)
		}
	}

	// r1: plain agent. r2: restarts mid-run. r3: duplicated deliveries.
	clk1 := clock.NewManual(testBase)
	a1 := New("r1", sink, WithClock(clk1))
	clk3 := clock.NewManual(testBase)
	a3 := New("r3", duplicatingSink{sink}, WithClock(clk3))

	clk2 := clock.NewManual(testBase)
	a2 := New("r2", sink, WithClock(clk2))
	observe(a2, clk2, 700)
	drain(a2, clk2) // everything shipped, then the process "crashes"
	a2b := New("r2", sink, WithClock(clk2))
	if a2b.Incarnation() == a2.Incarnation() {
		t.Fatal("restarted agent reused its incarnation")
	}
	observe(a2b, clk2, 700)
	drain(a2b, clk2)

	observe(a1, clk1, 1400)
	drain(a1, clk1)
	observe(a3, clk3, 1400)
	drain(a3, clk3)

	at := testBase.Add(time.Hour)
	cnt, err := store.WindowAggregate("count_over_time", 0, "upstream_ms", nil, 2*time.Hour, at)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != float64(len(all)) {
		t.Fatalf("fleet count %v, want %d (lost or double-counted)", cnt, len(all))
	}

	p99, err := store.WindowAggregate("quantile_over_time", 0.99, "upstream_ms", nil, 2*time.Hour, at)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(all)
	exact := all[int(math.Ceil(0.99*float64(len(all))))-1]
	if math.Abs(p99-exact) > sketch.DefaultAlpha*exact {
		t.Fatalf("fleet p99 %v vs exact %v exceeds alpha=%v bound", p99, exact, sketch.DefaultAlpha)
	}

	// Sanity: three distinct replicas landed as three series.
	if got := store.FederatedReplicaCount(); got != 4 { // r1, r2×2 incarnations, r3
		t.Fatalf("cursor count %d, want 4", got)
	}
}

func TestAgentStartLoopAndGracefulStop(t *testing.T) {
	store := metrics.NewStore()
	sink := &captureSink{store: store}
	a := New("r1", sink) // real clock, short interval
	a.interval = 10 * time.Millisecond
	a.Start()
	a.Observe("lat_ms", nil, 5)
	time.Sleep(30 * time.Millisecond)
	a.Stop(context.Background())
	// The final flush ships even the open bucket.
	cnt, err := store.WindowAggregate("count_over_time", 0, "lat_ms", nil, time.Hour, time.Now())
	if err != nil || cnt != 1 {
		t.Fatalf("graceful stop lost the open bucket: count=%v err=%v", cnt, err)
	}
}
