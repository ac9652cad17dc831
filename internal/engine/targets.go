package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/target"
)

// nopTarget accepts routing and drops it: the default for every kind, for
// model-only engines and the pure-scalability experiments (§5.2 removes
// app load entirely).
type nopTarget struct{}

func (nopTarget) Apply(context.Context, *core.Strategy, *core.State, core.RoutingConfig, int64) error {
	return nil
}
func (nopTarget) Convergence(context.Context, string) []target.Convergence { return nil }
func (nopTarget) Retire(string)                                            {}

// defaultTargets is the registry of an engine given no target.
func defaultTargets() *target.Registry {
	reg := target.NewRegistry()
	for _, kind := range target.KnownKinds() {
		_ = reg.Register(kind, nopTarget{})
	}
	return reg
}

// runTargets is one run's view of the engine's target registry: each of the
// strategy's services resolved to the target enacting it (its deployment's
// `target:` kind), once per run. The run loop works only through it, so
// capabilities — settling, a publish gate, a reconcile cadence — are
// detected on the targets themselves, whatever wraps them.
type runTargets struct {
	strategy string
	of       map[string]target.Target
	// unknown holds the error for services whose kind has no registered
	// target; it fails the run when such a service is first routed.
	unknown map[string]error
	// distinct lists the resolved targets once each, in service order.
	distinct []target.Target
	// tracks is set when some service enacts onto a Settler, which reports
	// convergence; a proxy service counts only with declared endpoints.
	// Only then does the run keep an anti-entropy reconciler.
	tracks bool
}

func (e *Engine) resolveTargets(s *core.Strategy) *runTargets {
	rt := &runTargets{strategy: s.Name, of: make(map[string]target.Target, len(s.Services))}
	for _, svc := range s.Services {
		kind := target.KindFor(svc)
		t, ok := e.targets.Lookup(kind)
		if !ok {
			if rt.unknown == nil {
				rt.unknown = make(map[string]error, 1)
			}
			rt.unknown[svc.Name] = fmt.Errorf(
				"engine: no enactment target registered for kind %q (service %q; registered: %s)",
				kind, svc.Name, strings.Join(e.targets.Kinds(), ", "))
			continue
		}
		rt.of[svc.Name] = t
		if !slices.Contains(rt.distinct, t) {
			rt.distinct = append(rt.distinct, t)
		}
		if _, settles := t.(target.Settler); settles &&
			(kind != target.KindProxy || len(svc.ProxyEndpoints()) > 0) {
			rt.tracks = true
		}
	}
	return rt
}

// apply enacts one routing config through its service's target.
func (rt *runTargets) apply(ctx context.Context, s *core.Strategy, state *core.State,
	rc core.RoutingConfig, generation int64) error {
	t, ok := rt.of[rc.Service]
	if !ok {
		if err := rt.unknown[rc.Service]; err != nil {
			return err
		}
		return fmt.Errorf("engine: routing for unknown service %q", rc.Service)
	}
	return t.Apply(ctx, s, state, rc, generation)
}

// settled tells the service's target that its routing_applied is published.
func (rt *runTargets) settled(service string) {
	if s, ok := rt.of[service].(target.Settler); ok {
		s.Settled(rt.strategy, service)
	}
}

// convergence runs one observation pass on every target, merged and sorted
// by service.
func (rt *runTargets) convergence(ctx context.Context) []FleetStatus {
	var out []FleetStatus
	for _, t := range rt.distinct {
		out = append(out, t.Convergence(ctx, rt.strategy)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Service < out[j].Service })
	return out
}

// withCurrent runs fn, the publish of a report on the service, only while
// the report's generation is current. Targets without a Gate cannot
// re-check currency, so their reports publish as-is.
func (rt *runTargets) withCurrent(service string, generation int64, fn func()) bool {
	t := rt.of[service]
	if t == nil {
		return false
	}
	if g, ok := t.(target.Gate); ok {
		return g.WithCurrent(rt.strategy, service, generation, fn)
	}
	fn()
	return true
}

// reconcileInterval is the fastest cadence any of the run's paced targets
// asks for (default 10s).
func (rt *runTargets) reconcileInterval() time.Duration {
	d := 10 * time.Second
	for _, t := range rt.distinct {
		if p, ok := t.(target.Paced); ok {
			if v := p.ReconcileInterval(); v > 0 && v < d {
				d = v
			}
		}
	}
	return d
}

// passBudget is the largest budget any of the run's paced targets needs,
// so the slowest target's pass is never cut short (default 10s).
func (rt *runTargets) passBudget() time.Duration {
	var d time.Duration
	for _, t := range rt.distinct {
		if p, ok := t.(target.Paced); ok {
			d = max(d, p.PassBudget())
		}
	}
	if d == 0 {
		d = 10 * time.Second
	}
	return d
}

// retire drops the strategy's state on every target.
func (rt *runTargets) retire() {
	for _, t := range rt.distinct {
		t.Retire(rt.strategy)
	}
}
