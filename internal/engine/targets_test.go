package engine

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/target"
)

// recordingTarget counts Apply/Retire calls and serves canned convergence.
type recordingTarget struct {
	applies int32
	retires int32
	reports []target.Convergence
	applyFn func(core.RoutingConfig) error
}

func (r *recordingTarget) Apply(_ context.Context, _ *core.Strategy, _ *core.State,
	rc core.RoutingConfig, _ int64) error {
	atomic.AddInt32(&r.applies, 1)
	if r.applyFn != nil {
		return r.applyFn(rc)
	}
	return nil
}

func (r *recordingTarget) Convergence(context.Context, string) []target.Convergence {
	return r.reports
}

func (r *recordingTarget) Retire(string) { atomic.AddInt32(&r.retires, 1) }

// settlingTarget additionally implements Settler/Gate/Paced.
type settlingTarget struct {
	recordingTarget
	settledCalls int32
	gateOK       bool
	every        time.Duration
	budget       time.Duration
}

func (s *settlingTarget) Settled(strategy, service string) { atomic.AddInt32(&s.settledCalls, 1) }

func (s *settlingTarget) WithCurrent(strategy, service string, generation int64, fn func()) bool {
	if !s.gateOK {
		return false
	}
	fn()
	return true
}

func (s *settlingTarget) ReconcileInterval() time.Duration { return s.every }
func (s *settlingTarget) PassBudget() time.Duration        { return s.budget }

func targetFixtureStrategy() *core.Strategy {
	return &core.Strategy{
		Name: "multi-target",
		Services: []core.Service{
			{
				Name:      "shop",
				ProxyURLs: []string{"r1"},
				Versions:  []core.Version{{Name: "stable", Endpoint: "127.0.0.1:9001"}},
			},
			{
				Name:     "search",
				Target:   "flag",
				Versions: []core.Version{{Name: "stable", Endpoint: "127.0.0.1:9002"}},
			},
		},
	}
}

// dispatchYAML routes a proxy fleet service and a flag service in a
// single final phase.
const dispatchYAML = `
name: multi-target
deployment:
  services:
    - service: shop
      proxy: r1
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
    - service: search
      target: flag
      versions:
        - name: stable
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: done
      routes:
        - route:
            service: shop
            weights:
              stable: 100
        - route:
            service: search
            weights:
              stable: 100
`

// TestRunTargetsDispatchesByKind drives a run through the engine: each
// service's routing reaches the target its kind selects, only the Settler
// hears routing_applied, and every target is retired once at the end.
func TestRunTargetsDispatchesByKind(t *testing.T) {
	proxyT := &recordingTarget{}
	flagT := &settlingTarget{}
	reg := target.NewRegistry()
	if err := reg.Register(target.KindProxy, proxyT); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(target.KindFlag, flagT); err != nil {
		t.Fatal(err)
	}
	eng := New(WithTargets(reg))
	defer eng.Shutdown()
	s, err := dsl.Compile(dispatchYAML)
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, run); st.State != RunCompleted {
		t.Fatalf("run %s (%s), want completed", st.State, st.Error)
	}

	if proxyT.applies != 1 || flagT.applies != 1 {
		t.Errorf("applies = proxy %d, flag %d; want 1 each", proxyT.applies, flagT.applies)
	}
	// settled routes only to the target that implements Settler.
	if flagT.settledCalls != 1 {
		t.Errorf("flag settled calls = %d, want 1", flagT.settledCalls)
	}
	// The run's end retires every target once.
	if proxyT.retires != 1 || flagT.retires != 1 {
		t.Errorf("retires = proxy %d, flag %d; want 1 each", proxyT.retires, flagT.retires)
	}
}

// TestRunTargetsUnknownKind: a service whose kind has no registered target
// fails when routed — with an empty registry, and with a fleet alone, which
// is no flag target and must not receive a flag service's routing.
func TestRunTargetsUnknownKind(t *testing.T) {
	for _, eng := range []*Engine{
		New(WithTargets(target.NewRegistry())),
		New(WithConfigurator(NewFleetConfigurator())),
	} {
		rt := eng.resolveTargets(targetFixtureStrategy())
		s := targetFixtureStrategy()
		err := rt.apply(context.Background(), s, nil,
			core.RoutingConfig{Service: "search", Weights: map[string]float64{"stable": 1}}, 1)
		if err == nil {
			t.Fatal("unregistered kind configured")
		}
		if want := `kind "flag"`; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
}

func TestRunTargetsAggregatesConvergence(t *testing.T) {
	proxyT := &recordingTarget{reports: []target.Convergence{
		{Service: "shop", Generation: 3, Replicas: 3, Acked: 3, Converged: true},
	}}
	flagT := &settlingTarget{recordingTarget: recordingTarget{reports: []target.Convergence{
		{Service: "search", Generation: 3, Replicas: 2, Acked: 1, Lagging: []string{"sdk-1"}},
	}}}
	reg := target.NewRegistry()
	reg.Register(target.KindProxy, proxyT)
	reg.Register(target.KindFlag, flagT)
	s := targetFixtureStrategy()
	rt := New(WithTargets(reg)).resolveTargets(s)
	ctx := context.Background()
	rc := core.RoutingConfig{Weights: map[string]float64{"stable": 1}}
	for _, svc := range []string{"shop", "search"} {
		rc.Service = svc
		if err := rt.apply(ctx, s, nil, rc, 3); err != nil {
			t.Fatal(err)
		}
	}

	got := rt.convergence(ctx)
	if len(got) != 2 {
		t.Fatalf("reconcile reports = %+v, want 2", got)
	}
	// Merged across targets, sorted by service.
	if got[0].Service != "search" || got[0].Acked != 1 || got[0].Lagging[0] != "sdk-1" {
		t.Errorf("search report = %+v", got[0])
	}
	if got[1].Service != "shop" || !got[1].Converged {
		t.Errorf("shop report = %+v", got[1])
	}
}

func TestRunTargetsPacing(t *testing.T) {
	fast := &settlingTarget{every: 2 * time.Second, budget: 1 * time.Second}
	slow := &settlingTarget{every: 8 * time.Second, budget: 6 * time.Second}
	reg := target.NewRegistry()
	reg.Register(target.KindFlag, fast)
	reg.Register(target.KindCommand, slow)
	s := targetFixtureStrategy()
	s.Services = append(s.Services, core.Service{
		Name: "ops", Target: "command", Command: []string{"true"},
		Versions: []core.Version{{Name: "stable", Endpoint: "127.0.0.1:9003"}},
	})
	rt := New(WithTargets(reg)).resolveTargets(s)
	if got := rt.reconcileInterval(); got != 2*time.Second {
		t.Errorf("reconcileInterval = %v, want fastest (2s)", got)
	}
	if got := rt.passBudget(); got != 6*time.Second {
		t.Errorf("passBudget = %v, want largest (6s)", got)
	}

	// No paced targets → defaults.
	empty := New(WithTargets(target.NewRegistry())).resolveTargets(s)
	if got := empty.reconcileInterval(); got != 10*time.Second {
		t.Errorf("default reconcileInterval = %v", got)
	}
	if got := empty.passBudget(); got != 10*time.Second {
		t.Errorf("default passBudget = %v", got)
	}
}

func TestRunTargetsWithCurrent(t *testing.T) {
	gated := &settlingTarget{gateOK: false}
	plain := &recordingTarget{}
	reg := target.NewRegistry()
	reg.Register(target.KindFlag, gated)
	reg.Register(target.KindProxy, plain)
	s := targetFixtureStrategy()
	rt := New(WithTargets(reg)).resolveTargets(s)
	ctx := context.Background()
	rc := core.RoutingConfig{Weights: map[string]float64{"stable": 1}}
	for _, svc := range []string{"shop", "search"} {
		rc.Service = svc
		if err := rt.apply(ctx, s, nil, rc, 1); err != nil {
			t.Fatal(err)
		}
	}

	// No target → publish refused.
	if rt.withCurrent("ghost", 1, func() {}) {
		t.Error("withCurrent succeeded for unowned service")
	}
	// Gated target refusing → refused, fn not run.
	ran := false
	if rt.withCurrent("search", 1, func() { ran = true }) || ran {
		t.Error("stale gate let the publish through")
	}
	gated.gateOK = true
	if !rt.withCurrent("search", 1, func() { ran = true }) || !ran {
		t.Error("current gate refused the publish")
	}
	// Target without a Gate → publish as-is.
	ran = false
	if !rt.withCurrent("shop", 1, func() { ran = true }) || !ran {
		t.Error("gate-less owner refused the publish")
	}
}

func TestRunTargetsTracks(t *testing.T) {
	reg := target.NewRegistry()
	reg.Register(target.KindProxy, &settlingTarget{})
	reg.Register(target.KindFlag, &settlingTarget{})
	reg.Register(target.KindCommand, &recordingTarget{})
	eng := New(WithTargets(reg))

	// flag services track regardless of proxy endpoints.
	if !eng.resolveTargets(targetFixtureStrategy()).tracks {
		t.Error("flag-target strategy not tracked")
	}
	// proxy services track only with declared endpoints.
	proxyOnly := &core.Strategy{Name: "p", Services: []core.Service{{
		Name: "s", Versions: []core.Version{{Name: "v", Endpoint: "e:1"}},
	}}}
	if eng.resolveTargets(proxyOnly).tracks {
		t.Error("endpoint-less proxy service tracked")
	}
	proxyOnly.Services[0].ProxyURLs = []string{"r1"}
	if !eng.resolveTargets(proxyOnly).tracks {
		t.Error("proxy fleet service not tracked")
	}
	// command services never track: the runner reports no convergence.
	cmd := &core.Strategy{Name: "c", Services: []core.Service{{
		Name: "s", Target: "command", Command: []string{"true"},
		Versions: []core.Version{{Name: "v", Endpoint: "e:1"}},
	}}}
	if eng.resolveTargets(cmd).tracks {
		t.Error("command-target strategy tracked")
	}
}

// TestFleetWithCurrentStaleGeneration is the regression test for the
// stale-report race: a convergence report snapshotted for generation N
// must not publish once generation N+1 has superseded it — WithCurrent
// re-checks currency under the same lock Apply takes.
func TestFleetWithCurrentStaleGeneration(t *testing.T) {
	s, rc, _, dial := fleetFixture()
	fc := NewFleetConfigurator(dial, FleetRetry(fastRetry()))
	ctx := context.Background()

	if err := fc.Apply(ctx, s, nil, rc, 1); err != nil {
		t.Fatal(err)
	}

	// Mid-settling (routing_applied not journaled yet): no publishes.
	if fc.WithCurrent(s.Name, "shop", 1, func() {}) {
		t.Error("withCurrent passed while settling")
	}
	fc.Settled(s.Name, "shop")
	ran := false
	if !fc.WithCurrent(s.Name, "shop", 1, func() { ran = true }) || !ran {
		t.Error("withCurrent refused the settled current generation")
	}

	// Generation 2 supersedes 1 — exactly the filter-to-publish window the
	// race lived in: a pass that snapshotted gen-1 reports must now find
	// the gate closed.
	if err := fc.Apply(ctx, s, nil, rc, 2); err != nil {
		t.Fatal(err)
	}
	ran = false
	if fc.WithCurrent(s.Name, "shop", 1, func() { ran = true }) || ran {
		t.Error("stale generation-1 report slipped through the publish gate")
	}
	// And the new generation stays gated until it settles.
	if fc.WithCurrent(s.Name, "shop", 2, func() {}) {
		t.Error("withCurrent passed for a still-settling generation")
	}
	fc.Settled(s.Name, "shop")
	if !fc.WithCurrent(s.Name, "shop", 2, func() {}) {
		t.Error("withCurrent refused the new settled generation")
	}

	// Unknown fleets never publish.
	if fc.WithCurrent(s.Name, "ghost", 1, func() {}) {
		t.Error("withCurrent passed for unknown service")
	}
}
