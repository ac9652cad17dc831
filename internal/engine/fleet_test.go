package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/httpx"
	"bifrost/internal/proxy"
	"bifrost/internal/target"
)

// fastRetry keeps unit tests quick: real-clock backoff in the millisecond
// range instead of the production 100ms → 2s schedule.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		PushTimeout: time.Second,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	}
}

// fakeReplica is an in-process proxy admin endpoint with scriptable
// failures: setErrs are consumed one per SetConfig attempt (nil = accept).
type fakeReplica struct {
	mu         sync.Mutex
	cfg        proxy.Config
	setErrs    []error
	getErr     error
	healthyErr error
	sets       int
}

func (f *fakeReplica) SetConfig(ctx context.Context, cfg proxy.Config) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sets++
	if len(f.setErrs) > 0 {
		err := f.setErrs[0]
		f.setErrs = f.setErrs[1:]
		if err != nil {
			return err
		}
	}
	if cfg.Generation < f.cfg.Generation {
		return &httpx.Problem{Status: http.StatusConflict, Code: proxy.CodeStaleGeneration}
	}
	f.cfg = cfg
	return nil
}

func (f *fakeReplica) GetConfig(ctx context.Context) (proxy.Config, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.getErr != nil {
		return proxy.Config{}, f.getErr
	}
	return f.cfg, nil
}

func (f *fakeReplica) Healthy(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healthyErr
}

func (f *fakeReplica) setCalls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sets
}

func (f *fakeReplica) generation() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.Generation
}

// crash simulates the replica process dying: admin API unreachable.
func (f *fakeReplica) crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.getErr = errors.New("dial tcp: connection refused")
	f.healthyErr = errors.New("dial tcp: connection refused")
}

// reboot simulates the replica coming back empty: reachable, no config.
func (f *fakeReplica) reboot() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.getErr, f.healthyErr = nil, nil
	f.cfg = proxy.Config{}
	f.setErrs = nil
}

// fleetFixture is a strategy with one service fronted by three replicas.
func fleetFixture() (*core.Strategy, core.RoutingConfig, map[string]*fakeReplica, FleetOption) {
	replicas := map[string]*fakeReplica{
		"r1": {}, "r2": {}, "r3": {},
	}
	s := &core.Strategy{
		Name: "fleet-unit",
		Services: []core.Service{{
			Name:      "shop",
			ProxyURLs: []string{"r1", "r2", "r3"},
			Versions: []core.Version{
				{Name: "stable", Endpoint: "127.0.0.1:9001"},
				{Name: "canary", Endpoint: "127.0.0.1:9002"},
			},
		}},
	}
	rc := core.RoutingConfig{Service: "shop", Weights: map[string]float64{"stable": 9, "canary": 1}}
	dial := fleetDial(func(url string) replicaClient { return replicas[url] })
	return s, rc, replicas, dial
}

// TestBuildProxyConfigDeterministic proves satellite #2: repeated renders
// of the same routing config are byte-identical on the wire — backends in
// sorted version order, shadows sorted — which the fleet reconciler's
// convergence comparison and idempotent re-pushes rely on.
func TestBuildProxyConfigDeterministic(t *testing.T) {
	s := &core.Strategy{
		Name: "det",
		Services: []core.Service{{
			Name: "shop",
			Versions: []core.Version{
				{Name: "a", Endpoint: "127.0.0.1:1"},
				{Name: "b", Endpoint: "127.0.0.1:2"},
				{Name: "c", Endpoint: "127.0.0.1:3"},
				{Name: "z", Endpoint: "127.0.0.1:4"},
			},
		}},
	}
	rc := core.RoutingConfig{
		Service: "shop",
		Weights: map[string]float64{"c": 1, "a": 2, "b": 3},
		Shadows: []core.ShadowRule{
			{Source: "b", Target: "z", Percent: 5},
			{Source: "a", Target: "z", Percent: 10},
		},
	}
	first, err := BuildProxyConfig(s, rc, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(first)
	if first.Backends[0].Version != "a" || first.Backends[2].Version != "c" {
		t.Fatalf("backends not sorted: %+v", first.Backends)
	}
	if first.Shadows[0].Source != "a" {
		t.Fatalf("shadows not sorted: %+v", first.Shadows)
	}
	for i := 0; i < 50; i++ {
		// Rebuild the weights map each round so Go's map iteration order
		// gets a fresh chance to shuffle a nondeterministic render.
		rc.Weights = map[string]float64{"b": 3, "c": 1, "a": 2}
		cfg, err := BuildProxyConfig(s, rc, 7)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(cfg)
		if string(got) != string(want) {
			t.Fatalf("render %d differs:\n%s\n%s", i, got, want)
		}
	}
}

// TestPushWithRetryTransientThenSuccess: transient failures (network
// errors, 5xx) are retried with backoff and the push eventually lands.
func TestPushWithRetryTransientThenSuccess(t *testing.T) {
	f := &fakeReplica{setErrs: []error{
		errors.New("connection refused"),
		&httpx.Error{StatusCode: http.StatusServiceUnavailable, Message: "starting up"},
	}}
	err := pushWithRetry(context.Background(), clock.Real{}, f,
		proxy.Config{Service: "shop", Generation: 1}, fastRetry())
	if err != nil {
		t.Fatalf("push failed despite retry budget: %v", err)
	}
	if f.setCalls() != 3 {
		t.Errorf("attempts = %d, want 3", f.setCalls())
	}
	if f.generation() != 1 {
		t.Errorf("generation = %d, want 1", f.generation())
	}
}

// TestPushWithRetryPermanentFailsImmediately: typed 4xx rejections
// (invalid_config, stale_generation) are never retried.
func TestPushWithRetryPermanentFailsImmediately(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"invalid_config", &httpx.Problem{Status: http.StatusBadRequest, Code: proxy.CodeInvalidConfig}},
		{"stale_generation", &httpx.Problem{Status: http.StatusConflict, Code: proxy.CodeStaleGeneration}},
		{"legacy 409 envelope", &httpx.Error{StatusCode: http.StatusConflict, Message: "stale"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &fakeReplica{setErrs: []error{tc.err, tc.err, tc.err}}
			err := pushWithRetry(context.Background(), clock.Real{}, f,
				proxy.Config{Service: "shop", Generation: 1}, fastRetry())
			if err == nil {
				t.Fatal("permanent rejection reported as success")
			}
			if f.setCalls() != 1 {
				t.Errorf("attempts = %d, want 1 (no retry on permanent failure)", f.setCalls())
			}
		})
	}
}

// TestFleetQuorum: with quorum 2 of 3, one replica permanently down does
// not fail the state entry; with quorum all (default) it does. Each
// scenario gets its own fixture — an early quorum return leaves the dead
// replica's retry goroutine running briefly in the background.
func TestFleetQuorum(t *testing.T) {
	down := errors.New("connection refused")
	manyDown := func() []error { return []error{down, down, down, down, down, down} }

	t.Run("quorum 2 of 3 tolerates a dead replica", func(t *testing.T) {
		s, rc, replicas, dial := fleetFixture()
		replicas["r3"].setErrs = manyDown()
		fc := NewFleetConfigurator(FleetQuorum(2), FleetRetry(fastRetry()), dial)
		if err := fc.Apply(context.Background(), s, &core.State{}, rc, 3); err != nil {
			t.Fatalf("quorum 2/3 push failed: %v", err)
		}
		if replicas["r1"].generation() != 3 || replicas["r2"].generation() != 3 {
			t.Errorf("healthy replicas not configured: r1=%d r2=%d",
				replicas["r1"].generation(), replicas["r2"].generation())
		}
	})

	t.Run("quorum all fails on a dead replica", func(t *testing.T) {
		s, rc, replicas, dial := fleetFixture()
		replicas["r3"].setErrs = manyDown()
		all := NewFleetConfigurator(FleetRetry(fastRetry()), dial)
		err := all.Apply(context.Background(), s, &core.State{}, rc, 4)
		if err == nil {
			t.Fatal("quorum all with a dead replica reported success")
		}
		if got := err.Error(); !strings.Contains(got, "2/3") || !strings.Contains(got, "r3") {
			t.Errorf("error %q does not name the partial result and failed replica", got)
		}
	})
}

// hungReplica accepts the connection and never answers: every push
// attempt burns its full PushTimeout.
type hungReplica struct{}

func (hungReplica) SetConfig(ctx context.Context, cfg proxy.Config) error {
	<-ctx.Done()
	return ctx.Err()
}
func (hungReplica) GetConfig(ctx context.Context) (proxy.Config, error) {
	<-ctx.Done()
	return proxy.Config{}, ctx.Err()
}
func (hungReplica) Healthy(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestFleetQuorumUnblocksDespiteHungReplica: once the quorum has acked,
// Configure returns without waiting out the hung replica's full retry
// schedule — a minority of wedged admin APIs must not delay every state
// transition of the automaton.
func TestFleetQuorumUnblocksDespiteHungReplica(t *testing.T) {
	s, rc, replicas, _ := fleetFixture()
	dial := fleetDial(func(url string) replicaClient {
		if url == "r3" {
			return hungReplica{}
		}
		return replicas[url]
	})
	// 3 attempts × 2s timeout ≈ 6s for the hung replica; quorum must not
	// wait for any of it.
	fc := NewFleetConfigurator(FleetQuorum(2), FleetRetry(RetryPolicy{
		PushTimeout: 2 * time.Second,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}), dial)
	start := time.Now()
	if err := fc.Apply(context.Background(), s, &core.State{}, rc, 9); err != nil {
		t.Fatalf("Configure: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Configure took %v with quorum acked instantly, want well under the 2s push timeout", elapsed)
	}
	if replicas["r1"].generation() != 9 || replicas["r2"].generation() != 9 {
		t.Errorf("quorum replicas not configured: r1=%d r2=%d",
			replicas["r1"].generation(), replicas["r2"].generation())
	}
}

// TestFleetReconcileSkipsSettlingFleet: while a state entry's own fan-out
// is still running, a reconcile pass must not report (and so not degrade)
// the fleet — a replica mid-first-delivery is not lagging, and a degraded
// event must never precede the generation's routing_applied.
func TestFleetReconcileSkipsSettlingFleet(t *testing.T) {
	s, rc, replicas, _ := fleetFixture()
	dial := fleetDial(func(url string) replicaClient {
		if url == "r3" {
			return hungReplica{}
		}
		return replicas[url]
	})
	fc := NewFleetConfigurator(FleetRetry(RetryPolicy{
		PushTimeout: 400 * time.Millisecond,
		MaxAttempts: 1,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  time.Millisecond,
	}), dial)
	done := make(chan error, 1)
	go func() { done <- fc.Apply(context.Background(), s, &core.State{}, rc, 2) }()
	time.Sleep(50 * time.Millisecond) // r1/r2 acked; r3 hangs out its push timeout
	if got := fc.Convergence(context.Background(), s.Name); len(got) != 0 {
		t.Errorf("reconcile during settling fan-out = %+v, want none", got)
	}
	if err := <-done; err == nil {
		t.Fatal("quorum all with a hung replica reported success")
	}
	reports := fc.Convergence(context.Background(), s.Name)
	if len(reports) != 1 || reports[0].Converged {
		t.Errorf("reconcile after fan-out = %+v, want one degraded report", reports)
	}
}

// TestZeroValueFleetConfigurator: constructing the struct directly (not
// via NewFleetConfigurator) must not silently report success without
// pushing — the zero retry policy takes defaults and the maps self-init.
func TestZeroValueFleetConfigurator(t *testing.T) {
	s := &core.Strategy{
		Name: "zero",
		Services: []core.Service{{
			Name: "shop",
			// Unroutable replica: the push must actually be attempted and
			// fail, not be skipped by a zero-attempt retry loop.
			ProxyURLs: []string{"127.0.0.1:1"},
			Versions:  []core.Version{{Name: "stable", Endpoint: "127.0.0.1:9001"}},
		}},
	}
	rc := core.RoutingConfig{Service: "shop", Weights: map[string]float64{"stable": 1}}
	fc := &FleetConfigurator{}
	if err := fc.Apply(context.Background(), s, &core.State{}, rc, 1); err == nil {
		t.Fatal("zero-value configurator reported success without any reachable replica")
	}
	if fc.ReconcileInterval() <= 0 {
		t.Errorf("reconcileInterval = %v, want positive", fc.ReconcileInterval())
	}
}

// TestFleetReconcileRepairsRebootedReplica: a replica that crashes is
// reported degraded; once it reboots (empty config), the next anti-entropy
// pass re-pushes the current generation and reports convergence.
func TestFleetReconcileRepairsRebootedReplica(t *testing.T) {
	s, rc, replicas, dial := fleetFixture()
	fc := NewFleetConfigurator(FleetRetry(fastRetry()), dial)
	ctx := context.Background()
	if err := fc.Apply(ctx, s, &core.State{}, rc, 5); err != nil {
		t.Fatal(err)
	}
	// The run loop calls settled after publishing routing_applied; mirror
	// it so the reconciler reports this fleet.
	fc.Settled(s.Name, "shop")

	reports := fc.Convergence(ctx, s.Name)
	if len(reports) != 1 || !reports[0].Converged || reports[0].Acked != 3 {
		t.Fatalf("initial reconcile = %+v, want converged 3/3", reports)
	}

	replicas["r2"].crash()
	reports = fc.Convergence(ctx, s.Name)
	if len(reports) != 1 || reports[0].Converged || reports[0].Acked != 2 {
		t.Fatalf("crashed reconcile = %+v, want degraded 2/3", reports)
	}
	if len(reports[0].Lagging) != 1 || reports[0].Lagging[0] != "r2" {
		t.Fatalf("lagging = %v, want [r2]", reports[0].Lagging)
	}

	replicas["r2"].reboot()
	reports = fc.Convergence(ctx, s.Name)
	if len(reports) != 1 || !reports[0].Converged {
		t.Fatalf("post-reboot reconcile = %+v, want converged", reports)
	}
	if replicas["r2"].generation() != 5 {
		t.Errorf("rebooted replica generation = %d, want 5 (anti-entropy re-push)",
			replicas["r2"].generation())
	}

	fc.Retire(s.Name)
	if got := fc.Convergence(ctx, s.Name); len(got) != 0 {
		t.Errorf("reconcile after forget = %+v, want none", got)
	}
}

// countReplicaGauges counts exported engine_proxy_replica_generation series.
func countReplicaGauges(eng *Engine) int {
	n := 0
	for _, p := range eng.Registry().Gather() {
		if p.Name == "engine_proxy_replica_generation" {
			n++
		}
	}
	return n
}

// TestFleetForgetRetiresReplicaGauges: finished strategies must not leak
// per-replica generation series for the engine's lifetime.
func TestFleetForgetRetiresReplicaGauges(t *testing.T) {
	s, rc, _, dial := fleetFixture()
	fc := NewFleetConfigurator(FleetRetry(fastRetry()), dial)
	eng := New(WithConfigurator(fc)) // binds the registry
	defer eng.Shutdown()

	if err := fc.Apply(context.Background(), s, &core.State{}, rc, 2); err != nil {
		t.Fatal(err)
	}
	if n := countReplicaGauges(eng); n != 3 {
		t.Fatalf("replica gauges after configure = %d, want 3", n)
	}
	fc.Retire(s.Name)
	if n := countReplicaGauges(eng); n != 0 {
		t.Errorf("replica gauges after forget = %d, want 0", n)
	}
	// A straggler ack arriving after forget must not resurrect a series.
	fc.recordGeneration(fleetKey{s.Name, "shop"}, "r1", 2)
	if n := countReplicaGauges(eng); n != 0 {
		t.Errorf("replica gauges after post-forget ack = %d, want 0", n)
	}
}

// TestFleetForgetRetiresRepushCounters: anti-entropy re-pushes to lagging
// replicas surface on a per-replica engine_proxy_repush_total counter, and
// forget retires those series alongside the generation gauges.
func TestFleetForgetRetiresRepushCounters(t *testing.T) {
	s, rc, replicas, dial := fleetFixture()
	fc := NewFleetConfigurator(FleetRetry(fastRetry()), dial)
	eng := New(WithConfigurator(fc)) // binds the registry
	defer eng.Shutdown()

	ctx := context.Background()
	if err := fc.Apply(ctx, s, &core.State{}, rc, 5); err != nil {
		t.Fatal(err)
	}
	fc.Settled(s.Name, "shop")
	replicas["r2"].crash()
	fc.Convergence(ctx, s.Name)
	replicas["r2"].reboot()
	fc.Convergence(ctx, s.Name) // repairs r2: one re-push

	countRepush := func() (series int, total float64) {
		for _, p := range eng.Registry().Gather() {
			if p.Name == "engine_proxy_repush_total" {
				series++
				total += p.Value
			}
		}
		return
	}
	series, total := countRepush()
	if series != 1 || total < 1 {
		t.Fatalf("repush counters after repair = %d series (sum %v), want 1 series ≥ 1", series, total)
	}
	fc.Retire(s.Name)
	if series, _ := countRepush(); series != 0 {
		t.Errorf("repush counters after forget = %d, want 0", series)
	}
}

// TestFleetConvergedEventAfterRecovery: a degradation journaled before an
// engine restart is resolved on the event stream — the recovered run's
// reconciler seeds its transition detector from the journal-reduced fleet
// status, so the heal observed on its first pass publishes
// routing_converged instead of staying silent forever.
func TestFleetConvergedEventAfterRecovery(t *testing.T) {
	replicas := map[string]*fakeReplica{"r1": {}, "r2": {}, "r3": {}}
	dial := fleetDial(func(url string) replicaClient { return replicas[url] })
	const src = `
name: fleet-recover
deployment:
  services:
    - service: shop
      proxies: [r1, r2, r3]
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
strategy:
  phases:
    - phase: hold
      duration: 300s
      routes:
        - route:
            service: shop
            weights: {stable: 100}
      on:
        success: done
    - phase: done
`
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fleetOpts := func() []FleetOption {
		return []FleetOption{FleetRetry(fastRetry()), FleetReconcileInterval(15 * time.Millisecond), dial}
	}

	eng1 := New(WithConfigurator(NewFleetConfigurator(fleetOpts()...)),
		WithJournalSet(openTestJournal(t, dir)))
	if _, err := eng1.EnactSource(strategy, src); err != nil {
		t.Fatal(err)
	}
	eventually(t, "initial fleet push", func() bool {
		return replicas["r1"].generation() > 0 && replicas["r2"].generation() > 0
	})
	replicas["r2"].crash()
	eventually(t, "degradation journaled", func() bool {
		for _, ev := range eng1.RunEvents("fleet-recover", 0) {
			if ev.Type == EventRoutingDegraded {
				return true
			}
		}
		return false
	})
	eng1.Suspend()

	// The replica heals while the engine is down.
	replicas["r2"].reboot()

	eng2 := New(WithConfigurator(NewFleetConfigurator(fleetOpts()...)),
		WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	events, cancel := eng2.Subscribe(256)
	defer cancel()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Resumed) != 1 {
		t.Fatalf("resumed = %d, want 1", len(report.Resumed))
	}
	conv := awaitEvent(t, events, "routing_converged after recovery", func(ev Event) bool {
		return ev.Type == EventRoutingConverged && ev.Service == "shop"
	})
	if conv.Acked != 3 {
		t.Errorf("converged acked = %d, want 3", conv.Acked)
	}
	if g := replicas["r2"].generation(); g <= 0 {
		t.Errorf("healed replica generation = %d, want re-pushed", g)
	}
}

// TestRecoveryReappliesRoutingFromEarlierState: routing persists across
// states that declare none, so a run recovered into a routeless soak
// state must still re-apply the routing in force (from the earlier
// state) — otherwise replicas that restarted during the downtime stay
// unconfigured and the reconciler has nothing to repair against.
func TestRecoveryReappliesRoutingFromEarlierState(t *testing.T) {
	replicas := map[string]*fakeReplica{"r1": {}, "r2": {}, "r3": {}}
	dial := fleetDial(func(url string) replicaClient { return replicas[url] })
	const src = `
name: fleet-soak
deployment:
  services:
    - service: shop
      proxies: [r1, r2, r3]
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
strategy:
  phases:
    - phase: rollout
      duration: 30ms
      routes:
        - route:
            service: shop
            weights: {stable: 100}
      on:
        success: soak
    - phase: soak
      duration: 300s
      on:
        success: done
    - phase: done
`
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fleetOpts := func() []FleetOption {
		return []FleetOption{FleetRetry(fastRetry()), FleetReconcileInterval(15 * time.Millisecond), dial}
	}

	eng1 := New(WithConfigurator(NewFleetConfigurator(fleetOpts()...)),
		WithJournalSet(openTestJournal(t, dir)))
	run1, err := eng1.EnactSource(strategy, src)
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "run reaches the routeless soak state", func() bool {
		return run1.Status().Current == "soak"
	})
	preCrash := replicas["r1"].generation()
	if preCrash <= 0 {
		t.Fatalf("rollout never configured the fleet (gen %d)", preCrash)
	}
	eng1.Suspend()

	// Every replica restarts configless while the engine is down.
	for _, f := range replicas {
		f.reboot()
	}

	eng2 := New(WithConfigurator(NewFleetConfigurator(fleetOpts()...)),
		WithJournalSet(openTestJournal(t, dir)))
	defer eng2.Shutdown()
	report, err := eng2.Recover(dsl.Compile)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Resumed) != 1 {
		t.Fatalf("resumed = %d, want 1", len(report.Resumed))
	}
	eventually(t, "routing re-applied to rebooted replicas", func() bool {
		for _, f := range replicas {
			if f.generation() <= preCrash {
				return false
			}
		}
		return true
	})
	eventually(t, "reconciler reports the restored fleet", func() bool {
		fl := report.Resumed[0].Status().Fleet
		return len(fl) == 1 && fl[0].Converged && fl[0].Acked == 3
	})
	if cur := report.Resumed[0].Status().Current; cur != "soak" {
		t.Errorf("recovered into %q, want soak", cur)
	}
}

// flakyAdmin is a real-HTTP proxy admin stub whose first failPuts config
// pushes fail with 503 — the "one flaky config push" from the issue title.
type flakyAdmin struct {
	mu       sync.Mutex
	failPuts int
	puts     int
	cfg      proxy.Config
}

func (fa *flakyAdmin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	switch {
	case r.Method == http.MethodPut && r.URL.Path == "/_bifrost/config":
		fa.puts++
		if fa.puts <= fa.failPuts {
			httpx.WriteError(w, http.StatusServiceUnavailable, "admin API hiccup")
			return
		}
		var cfg proxy.Config
		if err := httpx.ReadJSON(r, &cfg); err != nil {
			httpx.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		fa.cfg = cfg
		httpx.WriteJSON(w, http.StatusOK, map[string]any{"generation": cfg.Generation})
	case r.URL.Path == "/_bifrost/config":
		httpx.WriteJSON(w, http.StatusOK, fa.cfg)
	case r.URL.Path == "/_bifrost/healthy":
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	default:
		http.NotFound(w, r)
	}
}

// TestTransientPushFailureDoesNotFailRun is the regression for the
// headline bug: a single transient admin-API failure at state entry used
// to abort the whole run; with bounded retries it must complete.
func TestTransientPushFailureDoesNotFailRun(t *testing.T) {
	fa := &flakyAdmin{failPuts: 1}
	srv := httptest.NewServer(fa)
	defer srv.Close()

	src := fmt.Sprintf(`
name: flaky-push
deployment:
  services:
    - service: shop
      proxy: %s
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
        - name: canary
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: canary
      duration: 50ms
      routes:
        - route:
            service: shop
            weights: {stable: 9, canary: 1}
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: shop
            weights: {canary: 100}
`, srv.URL)
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}

	eng := New(WithConfigurator(NewFleetConfigurator(FleetRetry(fastRetry()))))
	defer eng.Shutdown()
	run, err := eng.Enact(strategy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := run.Wait(ctx); err != nil {
		t.Fatalf("run did not finish: %v", err)
	}
	st := run.Status()
	if st.State != RunCompleted {
		t.Fatalf("run state = %s (%s), want completed despite the flaky push", st.State, st.Error)
	}
	fa.mu.Lock()
	puts := fa.puts
	fa.mu.Unlock()
	if puts < 3 { // 1 failed + 1 retried + 1 for the done state
		t.Errorf("puts = %d, want the failed push retried", puts)
	}
}

// TestFleetSingleProxyRetriesTransient covers the single-proxy path: a
// service with one `proxy:` endpoint is a fleet of one, whose push is
// bounded and retried like every replica's.
func TestFleetSingleProxyRetriesTransient(t *testing.T) {
	fa := &flakyAdmin{failPuts: 2}
	srv := httptest.NewServer(fa)
	defer srv.Close()

	s := &core.Strategy{
		Name: "single",
		Services: []core.Service{{
			Name:     "shop",
			ProxyURL: srv.URL,
			Versions: []core.Version{{Name: "stable", Endpoint: "127.0.0.1:9001"}},
		}},
	}
	rc := core.RoutingConfig{Service: "shop", Weights: map[string]float64{"stable": 1}}
	fc := NewFleetConfigurator(FleetRetry(fastRetry()))
	if err := fc.Apply(context.Background(), s, &core.State{}, rc, 2); err != nil {
		t.Fatalf("configure: %v", err)
	}
	fa.mu.Lock()
	defer fa.mu.Unlock()
	if fa.cfg.Generation != 2 || fa.puts != 3 {
		t.Errorf("generation = %d after %d puts, want 2 after 3", fa.cfg.Generation, fa.puts)
	}
}

// racingTarget is a scripted target that reproduces the PR 5 trade-off
// window deterministically: its first convergence pass hands the run loop a
// degraded report for the generation it was asked to apply, and supersedes
// that generation *in the same breath* — i.e. the transition lands exactly
// between the pass's stale filter and the loop's publish. Later passes
// report the new generation.
type racingTarget struct {
	mu       sync.Mutex
	gen      int64 // current settled desired generation
	settling bool
	staleGen int64 // the generation the poisoned pass reports
	poisoned bool  // first post-settle pass already fired
	passes   int
}

func (m *racingTarget) Apply(ctx context.Context, s *core.Strategy,
	state *core.State, rc core.RoutingConfig, generation int64) error {
	m.mu.Lock()
	m.gen, m.settling = generation, true
	m.staleGen = generation
	m.mu.Unlock()
	return nil
}

func (m *racingTarget) Convergence(ctx context.Context, strategy string) []target.Convergence {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.settling {
		return nil
	}
	m.passes++
	if !m.poisoned {
		// The poisoned pass: report the current generation as degraded,
		// then supersede it before returning — from the run loop's point
		// of view the transition happened in the filter-to-publish window.
		m.poisoned = true
		st := FleetStatus{
			Service: "svc", Generation: m.staleGen,
			Replicas: 2, Acked: 1, Lagging: []string{"r2"},
		}
		m.gen = m.staleGen + 1 // supersede; already settled (applied elsewhere)
		return []FleetStatus{st}
	}
	return []FleetStatus{{
		Service: "svc", Generation: m.gen,
		Replicas: 2, Acked: 1, Lagging: []string{"r2"},
	}}
}

func (m *racingTarget) ReconcileInterval() time.Duration { return 5 * time.Millisecond }
func (m *racingTarget) PassBudget() time.Duration        { return time.Second }

func (m *racingTarget) Settled(strategy, service string) {
	m.mu.Lock()
	m.settling = false
	m.mu.Unlock()
}

func (m *racingTarget) Retire(strategy string) {}

// WithCurrent mirrors FleetConfigurator.WithCurrent's contract over the
// scripted state: fn runs only while generation is still the settled
// current one, under the same lock Convergence mutates it.
func (m *racingTarget) WithCurrent(strategy, service string, generation int64, fn func()) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.settling || m.gen != generation {
		return false
	}
	fn()
	return true
}

// TestReconcileLoopDropsStaleReportFullPath drives the PR 5 stale-report
// race through the real run loop: the reconciler's pass returns a report
// for a generation that is superseded before the loop can publish it. The
// loop must consult the manager's publish gate and drop the report — the
// journal never carries a routing_degraded for the dead generation — while
// the next pass's report for the live generation still publishes.
func TestReconcileLoopDropsStaleReportFullPath(t *testing.T) {
	fm := &racingTarget{}
	eng := New(WithConfigurator(fm))
	defer eng.Shutdown()

	// A proxy service tracks convergence only with declared endpoints.
	src := strings.Replace(holdStrategy, "    - service: svc\n",
		"    - service: svc\n      proxy: 127.0.0.1:9\n", 1)
	strategy, err := dsl.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	events, cancel := eng.Subscribe(256)
	defer cancel()
	if _, err := eng.EnactSource(strategy, src); err != nil {
		t.Fatal(err)
	}

	// The live generation's degradation reaches the stream... (staleGen is
	// only read once an event proves the poisoned pass already ran)
	ev := awaitEvent(t, events, "routing_degraded for the live generation", func(ev Event) bool {
		return ev.Type == EventRoutingDegraded
	})
	fm.mu.Lock()
	stale := fm.staleGen
	fm.mu.Unlock()
	if ev.Generation != stale+1 {
		t.Fatalf("first published degradation is generation %d, want %d (the superseding one)",
			ev.Generation, stale+1)
	}
	// ...and the superseded generation's never does, no matter how long the
	// journal is replayed: the gate dropped it inside the window.
	for _, got := range eng.RunEvents(strategy.Name, 0) {
		if (got.Type == EventRoutingDegraded || got.Type == EventRoutingConverged) &&
			got.Generation == stale {
			t.Fatalf("stale generation-%d report slipped through the publish gate: %+v",
				stale, got)
		}
	}
	fm.mu.Lock()
	passes := fm.passes
	fm.mu.Unlock()
	if passes < 2 {
		t.Fatalf("reconciler made %d passes, want at least the poisoned one and a live one", passes)
	}
}
