package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/target"
)

// This file implements fleet delivery: fanning a state's routing config
// out to every proxy replica of a service, with bounded retries, quorum
// acknowledgement, and background anti-entropy reconciliation, so one
// flaky admin call — or one rebooting replica — no longer kills a
// multi-day run (the paper's strategies run for days; §4.1's "engine
// updates the affected proxies" must tolerate exactly this).

// RetryPolicy bounds the delivery of one routing config to one proxy
// replica: every attempt runs under PushTimeout, and transient failures
// (network errors, HTTP 5xx) are retried with exponential backoff up to
// MaxAttempts. Permanent rejections — the proxy's typed invalid_config
// and stale_generation problems, or any other 4xx — fail immediately:
// retrying them can never succeed.
type RetryPolicy struct {
	// PushTimeout is the per-attempt deadline; a hung proxy admin API
	// costs at most this per attempt instead of wedging the run loop.
	PushTimeout time.Duration
	// MaxAttempts caps total attempts per push (including the first).
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt; it doubles per
	// attempt, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

// DefaultRetryPolicy is the policy used when fields are left zero: 5s per
// attempt, 4 attempts, backoff 100ms → 2s.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		PushTimeout: 5 * time.Second,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.PushTimeout <= 0 {
		rp.PushTimeout = def.PushTimeout
	}
	if rp.MaxAttempts <= 0 {
		rp.MaxAttempts = def.MaxAttempts
	}
	if rp.BaseBackoff <= 0 {
		rp.BaseBackoff = def.BaseBackoff
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = def.MaxBackoff
	}
	return rp
}

// replicaClient is the slice of a proxy's admin API the fleet subsystem
// uses; *proxy.Client implements it, tests inject fakes via dial.
type replicaClient interface {
	SetConfig(ctx context.Context, cfg proxy.Config) error
	GetConfig(ctx context.Context) (proxy.Config, error)
	Healthy(ctx context.Context) error
}

// dialProxy is the production dialer: admin clients over HTTP.
func dialProxy(baseURL string) replicaClient {
	return &proxy.Client{BaseURL: endpointURL(baseURL)}
}

func clockOrReal(clk clock.Clock) clock.Clock {
	if clk == nil {
		return clock.Real{}
	}
	return clk
}

// pushWithRetry delivers one config to one replica under the policy:
// bounded attempts, exponential backoff between them, immediate failure on
// permanent rejections and on context cancellation.
func pushWithRetry(ctx context.Context, clk clock.Clock, c replicaClient,
	cfg proxy.Config, rp RetryPolicy) error {

	backoff := rp.BaseBackoff
	var last error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-clk.After(backoff):
			}
			backoff *= 2
			if backoff > rp.MaxBackoff {
				backoff = rp.MaxBackoff
			}
		}
		pctx, cancel := context.WithTimeout(ctx, rp.PushTimeout)
		err := c.SetConfig(pctx, cfg)
		cancel()
		if err == nil {
			return nil
		}
		last = err
		if permanentPushError(err) || ctx.Err() != nil {
			return last
		}
	}
	return last
}

// permanentPushError reports whether a push rejection can never succeed on
// retry: an HTTP 4xx (typed invalid_config/stale_generation problems, or
// any malformed-request rejection) — except 408 and 429, which are
// canonically transient (a rate-limiting ingress in front of a replica
// must back off, not fail the push). Network errors and 5xx are transient.
func permanentPushError(err error) bool {
	status := 0
	var p *httpx.Problem
	var e *httpx.Error
	switch {
	case errors.As(err, &p):
		status = p.Status
	case errors.As(err, &e):
		status = e.StatusCode
	}
	switch status {
	case http.StatusRequestTimeout, http.StatusTooManyRequests:
		return false
	}
	return status >= 400 && status < 500
}

// deliver pushes cfg to every endpoint concurrently, each with its own
// retry schedule, and returns nil as soon as need replicas acked — a hung
// or dead minority must not delay the release automaton when a quorum
// below the fleet size is configured. Stragglers keep retrying in the
// background (bounded by the policy and ctx), reporting acks via onAck;
// replicas that never make it are repaired by the reconciler. A failure
// verdict waits for every replica's result so the error names each failed
// replica, with the per-replica errors wrapped (errors.As still reaches
// the proxies' typed problem documents).
func deliver(ctx context.Context, clk clock.Clock, dial func(string) replicaClient,
	endpoints []string, cfg proxy.Config, rp RetryPolicy, need int,
	onAck func(endpoint string)) error {

	type result struct {
		endpoint string
		err      error
	}
	results := make(chan result, len(endpoints))
	for _, ep := range endpoints {
		go func(ep string) {
			err := pushWithRetry(ctx, clk, dial(ep), cfg, rp)
			if err == nil && onAck != nil {
				onAck(ep)
			}
			results <- result{ep, err}
		}(ep)
	}
	acked := 0
	var fails []error
	for n := 0; n < len(endpoints); n++ {
		res := <-results
		if res.err == nil {
			acked++
			if acked >= need {
				return nil
			}
			continue
		}
		fails = append(fails, fmt.Errorf("%s: %w", res.endpoint, res.err))
	}
	return fmt.Errorf("engine: service %q: %d/%d replicas acked generation %d (quorum %d): %w",
		cfg.Service, acked, len(endpoints), cfg.Generation, need, errors.Join(fails...))
}

// FleetStatus is the convergence snapshot of one service's fleet at the
// run's current routing generation, as any enactment target reports it. It
// appears in run status (Status.Fleet), is reduced from routing_converged /
// routing_degraded events by the journal mirror, and is printed by
// `bifrost status`.
type FleetStatus = target.Convergence

// FleetOption configures a FleetConfigurator.
type FleetOption func(*FleetConfigurator)

// FleetQuorum sets how many replica acks make a state entry successful
// (0 or anything above the fleet size means: all replicas). Replicas that
// missed the push are reconverged by the background reconciler.
func FleetQuorum(n int) FleetOption {
	return func(fc *FleetConfigurator) { fc.quorum = n }
}

// FleetRetry sets the per-replica push retry policy.
func FleetRetry(rp RetryPolicy) FleetOption {
	return func(fc *FleetConfigurator) { fc.retry = rp.withDefaults() }
}

// FleetReconcileInterval sets the anti-entropy cadence (default 10s).
func FleetReconcileInterval(d time.Duration) FleetOption {
	return func(fc *FleetConfigurator) {
		if d > 0 {
			fc.every = d
		}
	}
}

// fleetDial overrides how admin clients are built (tests).
func fleetDial(dial func(string) replicaClient) FleetOption {
	return func(fc *FleetConfigurator) { fc.dial = dial }
}

// FleetConfigurator delivers routing configs to every proxy replica of a
// service (Service.ProxyURLs, or the single ProxyURL): concurrent fan-out,
// per-replica retry with exponential backoff under a push timeout, and
// state entry succeeding once a configurable quorum acks. It also tracks
// the desired config per (strategy, service), which the per-run
// reconciler polls against the live fleet — re-pushing the current
// generation to lagging or restarted replicas (anti-entropy) and
// reporting convergence, so a replica that reboots mid-phase reconverges
// without operator action.
type FleetConfigurator struct {
	quorum int
	retry  RetryPolicy
	every  time.Duration
	dial   func(string) replicaClient

	// clk and registry are bound to the owning engine by New (engine
	// clock drives backoff/timeout so tests stay deterministic; the
	// registry carries the per-replica generation gauges). Unbound, the
	// fleet runs on the real clock and records no gauges.
	clk      clock.Clock
	registry *metrics.Registry

	mu     sync.Mutex
	fleets map[fleetKey]*fleetState
	// recorded tracks, per fleet, the newest generation each replica's
	// gauge reported — both so Retire can delete the series instead of
	// leaking one per finished strategy, and so a delayed straggler ack
	// for an old generation cannot regress the gauge below what the
	// replica actually runs.
	recorded map[fleetKey]map[string]int64
}

type fleetKey struct{ strategy, service string }

// fleetState is the desired state of one service's fleet: the last wire
// config Apply rendered and where it must be live.
type fleetState struct {
	cfg      proxy.Config
	replicas []string
	// settling is true while the state entry's own fan-out is still
	// running (before its quorum verdict). The reconciler skips settling
	// fleets: a replica mid-retry of its first delivery is not degraded,
	// and a degraded event must never be journaled ahead of the
	// generation's routing_applied.
	settling bool
}

var (
	_ target.Target      = (*FleetConfigurator)(nil)
	_ target.Settler     = (*FleetConfigurator)(nil)
	_ target.Gate        = (*FleetConfigurator)(nil)
	_ target.Paced       = (*FleetConfigurator)(nil)
	_ target.ClockBinder = (*FleetConfigurator)(nil)
)

// NewFleetConfigurator creates a fleet configurator; by default it pushes
// over HTTP, requires every replica to ack, retries per
// DefaultRetryPolicy, and reconciles every 10 seconds.
func NewFleetConfigurator(opts ...FleetOption) *FleetConfigurator {
	fc := &FleetConfigurator{
		retry:    DefaultRetryPolicy(),
		every:    10 * time.Second,
		dial:     dialProxy,
		fleets:   make(map[fleetKey]*fleetState, 4),
		recorded: make(map[fleetKey]map[string]int64, 4),
	}
	for _, o := range opts {
		o(fc)
	}
	return fc
}

// BindClock implements target.ClockBinder: engine.New hands over its
// clock, which drives the retry backoff.
func (fc *FleetConfigurator) BindClock(clk clock.Clock) { fc.clk = clk }

// bindRegistry attaches the owning engine's metrics registry, which carries
// the per-replica generation gauges; called by engine.New.
func (fc *FleetConfigurator) bindRegistry(reg *metrics.Registry) { fc.registry = reg }

// quorumFor resolves the configured quorum against a fleet size.
func (fc *FleetConfigurator) quorumFor(replicas int) int {
	if fc.quorum <= 0 || fc.quorum > replicas {
		return replicas
	}
	return fc.quorum
}

// ensureInitLocked makes a zero-value FleetConfigurator usable: callers
// constructing the struct directly (instead of NewFleetConfigurator) get
// the same defaults rather than nil maps and a no-op retry policy.
// fc.mu must be held.
func (fc *FleetConfigurator) ensureInitLocked() {
	if fc.fleets == nil {
		fc.fleets = make(map[fleetKey]*fleetState, 4)
	}
	if fc.recorded == nil {
		fc.recorded = make(map[fleetKey]map[string]int64, 4)
	}
	if fc.dial == nil {
		fc.dial = dialProxy
	}
}

// Apply implements target.Target: render the routing config once, fan it
// out to every replica concurrently, and succeed once the quorum acks.
// The desired state is recorded first, so even a partially failed push is
// repaired by the reconciler rather than retried by hand.
func (fc *FleetConfigurator) Apply(ctx context.Context, s *core.Strategy,
	state *core.State, rc core.RoutingConfig, generation int64) error {

	svc, ok := s.FindService(rc.Service)
	if !ok {
		return fmt.Errorf("engine: routing for unknown service %q", rc.Service)
	}
	endpoints := svc.ProxyEndpoints()
	if len(endpoints) == 0 {
		return fmt.Errorf("engine: service %q has no proxy URL in deployment", rc.Service)
	}
	cfg, err := BuildProxyConfig(s, rc, generation)
	if err != nil {
		return err
	}

	key := fleetKey{s.Name, rc.Service}
	fs := &fleetState{cfg: cfg, replicas: append([]string(nil), endpoints...), settling: true}
	fc.mu.Lock()
	fc.ensureInitLocked()
	fc.fleets[key] = fs
	dial := fc.dial
	fc.mu.Unlock()

	err = deliver(ctx, clockOrReal(fc.clk), dial, endpoints, cfg, fc.retry.withDefaults(),
		fc.quorumFor(len(endpoints)),
		func(ep string) { fc.recordGeneration(key, ep, generation) })
	if err != nil {
		// The verdict is in and the run is failing this state entry;
		// nothing orders further events, so stop suppressing reports.
		fc.mu.Lock()
		if cur := fc.fleets[key]; cur == fs {
			cur.settling = false
		}
		fc.mu.Unlock()
		return err
	}
	// On success, settling stays set until the caller has published this
	// generation's routing_applied and calls Settled — otherwise a fast
	// reconcile pass could journal routing_degraded for generation N
	// ahead of routing_applied generation N.
	return nil
}

// recordGeneration publishes one replica's acked/observed generation as an
// engine gauge, so dashboards can see each replica converge. Acks landing
// after the fleet was forgotten (a straggler push outliving its run) are
// dropped rather than resurrecting a retired series.
func (fc *FleetConfigurator) recordGeneration(key fleetKey, replica string, gen int64) {
	if fc.registry == nil {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, live := fc.fleets[key]; !live {
		return
	}
	set := fc.recorded[key]
	if set == nil {
		set = make(map[string]int64, 4)
		fc.recorded[key] = set
	}
	if gen < set[replica] {
		// A delayed straggler ack for an older generation: the replica
		// already reported newer, keep the gauge monotonic.
		return
	}
	set[replica] = gen
	// The gauge write stays under fc.mu: a concurrent Retire either runs
	// entirely before (the liveness check above skips) or entirely after
	// (the recorded entry just added makes it delete this series) — an
	// unlocked write could land between Retire's collection and its
	// DeleteGauge, resurrecting a retired series forever.
	fc.registry.Gauge("engine_proxy_replica_generation", metrics.Labels{
		"strategy": key.strategy, "service": key.service, "replica": replica,
	}).Set(float64(gen))
}

// recordRepair counts one successful anti-entropy re-push to a lagging
// replica. Same locking discipline as recordGeneration: the write stays
// under fc.mu so a concurrent Retire cannot leave a resurrected series.
func (fc *FleetConfigurator) recordRepair(key fleetKey, replica string) {
	if fc.registry == nil {
		return
	}
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if _, live := fc.fleets[key]; !live {
		return
	}
	// Register the replica in recorded before writing, so Retire retires
	// this counter even if no generation ack ever lands for the replica.
	set := fc.recorded[key]
	if set == nil {
		set = make(map[string]int64, 4)
		fc.recorded[key] = set
	}
	if _, ok := set[replica]; !ok {
		set[replica] = 0
	}
	fc.registry.Counter("engine_proxy_repush_total", metrics.Labels{
		"strategy": key.strategy, "service": key.service, "replica": replica,
	}).Inc()
}

// ReconcileInterval implements target.Paced.
func (fc *FleetConfigurator) ReconcileInterval() time.Duration {
	if fc.every <= 0 {
		return 10 * time.Second // zero-value construction; see ensureInitLocked
	}
	return fc.every
}

// PassBudget implements target.Paced: the worst-case duration of one
// reconcile pass. Services are polled in parallel and each replica costs
// at most a config poll, a liveness poll, and a re-push — three calls
// bounded by the push timeout — plus slack for scheduling.
func (fc *FleetConfigurator) PassBudget() time.Duration {
	return 3*fc.retry.withDefaults().PushTimeout + time.Second
}

// Settled implements target.Settler: the caller has published this fleet's
// routing_applied, so the reconciler may report it from here on.
func (fc *FleetConfigurator) Settled(strategy, service string) {
	fc.mu.Lock()
	if fs := fc.fleets[fleetKey{strategy, service}]; fs != nil {
		fs.settling = false
	}
	fc.mu.Unlock()
}

// WithCurrent implements target.Gate: it re-checks, under fc.mu, that
// generation is still the service's settled desired generation and runs fn
// while holding the lock, so a state transition cannot supersede the
// generation between the reconcile pass's filter and the publish. fc.mu →
// publish-lock is the only ordering between these locks (nothing in the
// publish pipeline calls back into the fleet), so holding fc.mu across fn
// is deadlock-free.
func (fc *FleetConfigurator) WithCurrent(strategy, service string, generation int64, fn func()) bool {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fs := fc.fleets[fleetKey{strategy, service}]
	if fs == nil || fs.settling || fs.cfg.Generation != generation {
		return false
	}
	fn()
	return true
}

// Retire implements target.Target: drops a finished strategy's fleets and
// retires their per-replica generation gauges and re-push counters.
func (fc *FleetConfigurator) Retire(strategy string) {
	fc.mu.Lock()
	for key := range fc.fleets {
		if key.strategy == strategy {
			delete(fc.fleets, key)
		}
	}
	var retired []metrics.Labels
	for key, set := range fc.recorded {
		if key.strategy != strategy {
			continue
		}
		for replica := range set {
			retired = append(retired, metrics.Labels{
				"strategy": key.strategy, "service": key.service, "replica": replica,
			})
		}
		delete(fc.recorded, key)
	}
	fc.mu.Unlock()
	if fc.registry != nil {
		for _, labels := range retired {
			fc.registry.DeleteGauge("engine_proxy_replica_generation", labels)
			fc.registry.DeleteCounter("engine_proxy_repush_total", labels)
		}
	}
}

// Convergence implements target.Target: one anti-entropy pass over the
// strategy's fleets. Every replica is polled for its active config
// generation; lagging or restarted replicas get the current generation
// re-pushed (one bounded attempt — the next pass retries). Returns one
// FleetStatus per service, sorted by service name.
func (fc *FleetConfigurator) Convergence(ctx context.Context, strategy string) []FleetStatus {
	type fleet struct {
		key      fleetKey
		cfg      proxy.Config
		replicas []string
	}
	fc.mu.Lock()
	fleets := make([]fleet, 0, len(fc.fleets))
	for key, fs := range fc.fleets {
		if key.strategy != strategy || fs.settling {
			continue
		}
		fleets = append(fleets, fleet{key, fs.cfg, append([]string(nil), fs.replicas...)})
	}
	fc.mu.Unlock()
	sort.Slice(fleets, func(i, j int) bool { return fleets[i].key.service < fleets[j].key.service })

	// Services are polled concurrently like the replicas within each: a
	// pass must be bounded by the slowest single service, not their sum —
	// a hung replica costs two admin timeouts, and a sequential sweep of
	// several such services would blow past the caller's pass budget.
	out := make([]FleetStatus, len(fleets))
	var services sync.WaitGroup
	for ti, tg := range fleets {
		services.Add(1)
		go func(ti int, tg fleet) {
			defer services.Done()
			st := FleetStatus{
				Service:    tg.key.service,
				Generation: tg.cfg.Generation,
				Replicas:   len(tg.replicas),
			}
			gens := make([]int64, len(tg.replicas))
			var wg sync.WaitGroup
			for i, ep := range tg.replicas {
				wg.Add(1)
				go func(i int, ep string) {
					defer wg.Done()
					gens[i] = fc.observeAndRepair(ctx, tg.key, ep, tg.cfg)
				}(i, ep)
			}
			wg.Wait()
			for i, gen := range gens {
				if gen >= tg.cfg.Generation {
					st.Acked++
				} else {
					st.Lagging = append(st.Lagging, tg.replicas[i])
				}
			}
			st.Converged = st.Acked == st.Replicas
			out[ti] = st
		}(ti, tg)
	}
	services.Wait()
	// A pass can straddle a state transition: the run may have pushed a
	// newer generation while we were polling the captured one. Reports on
	// a superseded (or re-settling, or forgotten) desired state are
	// dropped — publishing them would degrade the fleet over a
	// generation nobody wants anymore; the next pass reports the current
	// one. A transition completing after this filter is caught by the
	// caller re-checking under WithCurrent at publish time, so a stale
	// report can no longer slip through the filter-to-publish window.
	fc.mu.Lock()
	current := out[:0]
	for _, st := range out {
		fs := fc.fleets[fleetKey{strategy, st.Service}]
		if fs != nil && !fs.settling && fs.cfg.Generation == st.Generation {
			current = append(current, st)
		}
	}
	fc.mu.Unlock()
	return current
}

// observeAndRepair polls one replica's active generation and re-pushes the
// desired config when the replica lags (it restarted, or missed a push).
// Returns the replica's generation after any repair; -1 when unreachable.
func (fc *FleetConfigurator) observeAndRepair(ctx context.Context, key fleetKey,
	replica string, want proxy.Config) int64 {

	c := fc.dial(replica)
	timeout := fc.retry.withDefaults().PushTimeout
	pctx, cancel := context.WithTimeout(ctx, timeout)
	cur, err := c.GetConfig(pctx)
	cancel()
	if err != nil {
		hctx, hcancel := context.WithTimeout(ctx, timeout)
		healthy := c.Healthy(hctx) == nil
		hcancel()
		if !healthy {
			return -1 // down; nothing to repair until it returns
		}
		cur = proxy.Config{Generation: -1} // alive but configless: re-push
	}
	if cur.Generation >= want.Generation {
		fc.recordGeneration(key, replica, cur.Generation)
		return cur.Generation
	}
	pctx, cancel = context.WithTimeout(ctx, timeout)
	err = c.SetConfig(pctx, want)
	cancel()
	if err != nil {
		if httpx.ProblemCode(err) == proxy.CodeStaleGeneration {
			// The replica is already ahead of this fleet's desired state:
			// a newer state's push raced this pass. Count it converged —
			// the desired state it outran is obsolete.
			return want.Generation
		}
		return cur.Generation // still lagging; next pass retries
	}
	fc.recordRepair(key, replica)
	fc.recordGeneration(key, replica, want.Generation)
	return want.Generation
}
