// Package federation is the per-replica half of Bifrost's fleet metrics:
// an aggregation agent that rides inside each proxy process, folds every
// observation into local per-second bucket summaries plus a mergeable
// quantile sketch, and ships the closed buckets as compact, sequence-
// numbered deltas to one federating metrics store.
//
// The agent is built for a lossy fleet. Deltas are delivered at least
// once: a batch that fails to ship stays queued and is retried with
// exponential backoff; a batch whose acknowledgement was lost is shipped
// again and deduplicated by the store's (replica, incarnation, seq)
// cursor; a restarted agent draws a fresh incarnation so its new sequence
// numbers cannot collide with the old process's. Under every schedule of
// drops, duplicates, and reorderings the federated totals converge to the
// clean-delivery values — the property internal/metrics's fault-injection
// tests pin.
//
// The wire unit is metrics.BucketDelta — the same summary bucket the
// store maintains for local series — so the federating store needs no
// translation layer: shipped buckets land as summary-only "remote"
// series, and fleet-wide window queries merge them with everything else.
package federation

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/metrics"
	"bifrost/internal/sketch"
)

// DeltaSink is where an agent ships its batches — an HTTPSink against a
// federating store in production, a fake with injected faults in tests.
type DeltaSink interface {
	ShipDelta(ctx context.Context, batch metrics.DeltaBatch) error
}

// HTTPSink ships batches to a metrics server's /api/v1/federate endpoint.
type HTTPSink struct {
	Client *metrics.Client
}

// ShipDelta implements DeltaSink. A duplicate acknowledgement (applied =
// false) is success: the store already has the batch.
func (h HTTPSink) ShipDelta(ctx context.Context, batch metrics.DeltaBatch) error {
	_, err := h.Client.PushDelta(ctx, batch)
	return err
}

// Defaults for the shipping loop.
const (
	DefaultBucketWidth  = time.Second
	DefaultShipInterval = 2 * time.Second
	DefaultMaxPending   = 512
	defaultBackoffMin   = 250 * time.Millisecond
	defaultBackoffMax   = 10 * time.Second
)

// Agent is one replica's aggregation agent. Observations fold into open
// buckets keyed by (series, bucket start); each flush closes every bucket
// whose interval has fully elapsed, wraps the closed buckets in a
// sequence-numbered batch, and drains the pending queue to the sink in
// order. Safe for concurrent use.
type Agent struct {
	replica     string
	incarnation string
	sink        DeltaSink
	clk         clock.Clock
	width       time.Duration
	interval    time.Duration
	alpha       float64
	registry    *metrics.Registry
	maxPending  int
	backoffMin  time.Duration
	backoffMax  time.Duration

	mu      sync.Mutex
	open    map[string]*openSeries
	pending []metrics.DeltaBatch
	seq     uint64
	// failures counts consecutive ship failures; nextAttempt gates the
	// next try (exponential backoff, reset on success).
	failures    int
	nextAttempt time.Time
	dropped     uint64 // batches evicted from a full pending queue
	// shipping serializes queue drains: concurrent Flush calls must not
	// both pop the front of the queue or batches could be lost locally.
	shipping bool

	stop chan struct{}
	done chan struct{}
}

// openSeries is one instrumented series' open (still-filling) buckets.
type openSeries struct {
	name    string
	labels  metrics.Labels
	buckets map[int64]*metrics.AggBucket
	// counter marks registry-gathered cumulative series: their buckets
	// hold one sample and carry no sketch (quantiles over cumulative
	// counters are meaningless).
	counter bool
}

// Option configures an Agent.
type Option func(*Agent)

// WithBucketWidth sets the aggregation bucket width (default 1s). It
// should match the federating store's summary bucket width.
func WithBucketWidth(d time.Duration) Option {
	return func(a *Agent) {
		if d > 0 {
			a.width = d
		}
	}
}

// WithShipInterval sets how often the Start loop flushes (default 2s).
func WithShipInterval(d time.Duration) Option {
	return func(a *Agent) {
		if d > 0 {
			a.interval = d
		}
	}
}

// WithAlpha sets the quantile sketches' relative accuracy (default
// sketch.DefaultAlpha). Zero disables sketches entirely.
func WithAlpha(alpha float64) Option {
	return func(a *Agent) { a.alpha = alpha }
}

// WithClock injects the clock (Manual in tests).
func WithClock(c clock.Clock) Option {
	return func(a *Agent) {
		if c != nil {
			a.clk = c
		}
	}
}

// WithRegistry attaches a registry whose counters and gauges are gathered
// on every flush and shipped as single-sample buckets — how the proxy's
// existing request/error counters reach the fleet store without a scraper
// reaching into every replica.
func WithRegistry(r *metrics.Registry) Option {
	return func(a *Agent) { a.registry = r }
}

// WithMaxPending bounds the unshipped batch queue (default 512). When the
// store is unreachable long enough to fill it, the oldest batches are
// dropped — bounded memory beats unbounded staleness.
func WithMaxPending(n int) Option {
	return func(a *Agent) {
		if n > 0 {
			a.maxPending = n
		}
	}
}

// WithBackoff sets the retry backoff range (defaults 250ms..10s).
func WithBackoff(min, max time.Duration) Option {
	return func(a *Agent) {
		if min > 0 && max >= min {
			a.backoffMin, a.backoffMax = min, max
		}
	}
}

// New creates an agent for the given replica identity. Every New call
// draws a fresh incarnation, so restarting a replica's process naturally
// restarts its sequence space.
func New(replica string, sink DeltaSink, opts ...Option) *Agent {
	a := &Agent{
		replica:     replica,
		incarnation: newIncarnation(),
		sink:        sink,
		clk:         clock.Real{},
		width:       DefaultBucketWidth,
		interval:    DefaultShipInterval,
		alpha:       sketch.DefaultAlpha,
		maxPending:  DefaultMaxPending,
		backoffMin:  defaultBackoffMin,
		backoffMax:  defaultBackoffMax,
		open:        make(map[string]*openSeries),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

func newIncarnation() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back to
		// a constant that still changes across deploys via the replica id.
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}

// Incarnation returns the agent's incarnation id (for tests and logs).
func (a *Agent) Incarnation() string { return a.incarnation }

// Observe folds one observation into the replica's open buckets at the
// agent clock's current time.
func (a *Agent) Observe(name string, labels metrics.Labels, v float64) {
	now := a.clk.Now()
	a.mu.Lock()
	a.observeLocked(name, labels, v, now, false)
	a.mu.Unlock()
}

func (a *Agent) observeLocked(name string, labels metrics.Labels, v float64, t time.Time, counter bool) {
	key := name + "\x00" + labels.Key()
	os, ok := a.open[key]
	if !ok {
		os = &openSeries{
			name:    name,
			labels:  labels.Clone(),
			buckets: make(map[int64]*metrics.AggBucket, 2),
			counter: counter,
		}
		a.open[key] = os
	}
	start := metrics.BucketStart(t, a.width)
	b, ok := os.buckets[start]
	if !ok {
		alpha := a.alpha
		if counter {
			alpha = 0
		}
		b = metrics.NewAggBucket(start, int64(a.width), alpha)
		os.buckets[start] = b
	}
	b.Observe(t.UnixNano(), v)
}

// Start launches the shipping loop; Stop flushes once more and waits for
// the loop to exit.
func (a *Agent) Start() {
	go func() {
		defer close(a.done)
		ticker := a.clk.NewTicker(a.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C():
				a.Flush(context.Background())
			case <-a.stop:
				return
			}
		}
	}()
}

// Stop halts the loop and attempts one final flush of everything,
// including still-open buckets, so a graceful shutdown loses nothing.
func (a *Agent) Stop(ctx context.Context) {
	close(a.stop)
	<-a.done
	a.flush(ctx, true)
}

// Flush closes every elapsed bucket into one batch, queues it, and drains
// the pending queue to the sink (respecting backoff). It returns the
// number of batches still pending afterwards.
func (a *Agent) Flush(ctx context.Context) int {
	return a.flush(ctx, false)
}

func (a *Agent) flush(ctx context.Context, final bool) int {
	now := a.clk.Now()
	a.mu.Lock()
	if a.registry != nil {
		for _, p := range a.registry.Gather() {
			a.observeLocked(p.Name, p.Labels, p.Value, now, p.Type == "counter")
		}
	}
	var deltas []metrics.BucketDelta
	cutoff := now.UnixNano() - int64(a.width)
	for key, os := range a.open {
		for start, b := range os.buckets {
			// A bucket closes once its interval [start, start+width) has
			// fully elapsed — or unconditionally on the final flush.
			if !final && start > cutoff {
				continue
			}
			if b.Count() > 0 {
				deltas = append(deltas, b.Export(os.name, os.labels))
			}
			delete(os.buckets, start)
		}
		if len(os.buckets) == 0 {
			delete(a.open, key)
		}
	}
	if len(deltas) > 0 {
		// Deterministic order inside the batch: by series then start.
		sort.Slice(deltas, func(i, j int) bool {
			if deltas[i].Name != deltas[j].Name {
				return deltas[i].Name < deltas[j].Name
			}
			return deltas[i].Start < deltas[j].Start
		})
		a.seq++
		a.pending = append(a.pending, metrics.DeltaBatch{
			Replica:     a.replica,
			Incarnation: a.incarnation,
			Seq:         a.seq,
			Buckets:     deltas,
		})
		if over := len(a.pending) - a.maxPending; over > 0 {
			a.pending = append(a.pending[:0:0], a.pending[over:]...)
			a.dropped += uint64(over)
		}
	}
	a.mu.Unlock()
	return a.ship(ctx, now)
}

// ship drains the pending queue in sequence order until it empties or a
// delivery fails; a failure arms exponential backoff so a down store is
// not hammered every interval.
func (a *Agent) ship(ctx context.Context, now time.Time) int {
	a.mu.Lock()
	if a.shipping || len(a.pending) == 0 || now.Before(a.nextAttempt) {
		n := len(a.pending)
		a.mu.Unlock()
		return n
	}
	a.shipping = true
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.shipping = false
		a.mu.Unlock()
	}()

	for {
		a.mu.Lock()
		if len(a.pending) == 0 {
			a.mu.Unlock()
			return 0
		}
		batch := a.pending[0]
		a.mu.Unlock()

		err := a.sink.ShipDelta(ctx, batch)

		a.mu.Lock()
		if err != nil {
			a.failures++
			backoff := a.backoffMin << (a.failures - 1)
			if backoff > a.backoffMax || backoff <= 0 {
				backoff = a.backoffMax
			}
			a.nextAttempt = a.clk.Now().Add(backoff)
			n := len(a.pending)
			a.mu.Unlock()
			return n
		}
		a.failures = 0
		a.nextAttempt = time.Time{}
		// Only this (single) drainer pops the front; a full queue may have
		// evicted our batch while we were shipping, so re-check identity.
		if len(a.pending) > 0 && a.pending[0].Seq == batch.Seq &&
			a.pending[0].Incarnation == batch.Incarnation {
			a.pending = a.pending[1:]
		}
		a.mu.Unlock()
	}
}

// Pending returns the number of queued, unshipped batches.
func (a *Agent) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// Dropped returns how many batches were evicted from a full queue.
func (a *Agent) Dropped() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
}
