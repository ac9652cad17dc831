// Package target defines the enactment-target plugin boundary: the small
// interface a backend must implement for the engine to enact routing
// configurations onto it, plus a registry that maps the DSL's per-service
// `target:` kind to an implementation.
//
// The design follows the executor/plugins split: one narrow interface
// (apply a config, report convergence, retire a strategy), many
// self-contained plugins, each unit-tested on its own. The engine's proxy
// fleet delivery is the `proxy` plugin; `flag` pushes rulesets that a
// client-side feature-flag SDK evaluates with no proxy hop; `command`
// shells out declaratively for external control planes.
//
// This package is deliberately tiny and depends only on internal/core and
// internal/clock, so plugins never import the engine and the engine never
// imports a plugin.
package target

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
)

// Well-known target kinds. The registry accepts any name, but the DSL
// validates against KnownKinds so typos are compile errors.
const (
	// KindProxy is the default: routing enacted onto the bifrost HTTP
	// proxy fleet fronting the service.
	KindProxy = "proxy"
	// KindFlag pushes rulesets evaluated client-side by the bifrost/flag
	// SDK — no proxy hop in the data path.
	KindFlag = "flag"
	// KindCommand shells out to a declared argv for external control
	// planes (k8s Services, Envoy xDS bridges, vendor flag systems).
	KindCommand = "command"
)

// KnownKinds returns the target kinds the DSL accepts, sorted.
func KnownKinds() []string {
	return []string{KindCommand, KindFlag, KindProxy}
}

// KindFor resolves a service's declared target kind; services that do not
// declare one enact onto the proxy, preserving pre-registry behavior.
func KindFor(svc core.Service) string {
	if svc.Target == "" {
		return KindProxy
	}
	return svc.Target
}

// Target is one enactment backend. Implementations must be safe for
// concurrent use: the engine applies configs from many runs at once and
// reconciles convergence in the background.
type Target interface {
	// Apply enacts one routing configuration for one service of the
	// strategy, stamped with the engine's monotonic generation.
	Apply(ctx context.Context, s *core.Strategy, state *core.State,
		rc core.RoutingConfig, generation int64) error
	// Convergence runs one observation pass for the strategy and reports
	// per-service convergence. Targets with nothing to observe (fire-and-
	// forget backends like command) return nil.
	Convergence(ctx context.Context, strategy string) []Convergence
	// Retire drops all state held for the strategy (run finished or
	// removed).
	Retire(strategy string)
}

// Convergence is one service's convergence report: how many of the
// target's replicas (proxy replicas, SDK instances, …) carry the current
// generation. The engine surfaces it unchanged as engine.FleetStatus.
type Convergence struct {
	Service string `json:"service"`
	// Generation is the service's desired routing generation.
	Generation int64 `json:"generation"`
	// Replicas is the fleet size; Acked counts replicas observed at (or
	// beyond) Generation.
	Replicas int `json:"replicas"`
	Acked    int `json:"acked"`
	// Lagging lists the replicas behind Generation or unreachable.
	Lagging []string `json:"lagging,omitempty"`
	// Converged is Acked == Replicas. A degraded fleet still serves
	// traffic — on the routing the lagging replicas last acked.
	Converged bool `json:"converged"`
}

// Optional capability interfaces. The engine feature-detects these on a
// registered Target; plugins implement only what they need.

// Settler is implemented by targets that suppress convergence reporting
// while a freshly applied config settles; the engine calls Settled after
// it has published the state entry.
type Settler interface {
	Settled(strategy, service string)
}

// Gate is implemented by targets that can re-check, under their own lock,
// that a generation is still current before a report about it is
// published. WithCurrent runs fn only if generation is the target's
// current settled generation for the service and reports whether it ran —
// closing the filter-to-publish race on stale convergence reports.
type Gate interface {
	WithCurrent(strategy, service string, generation int64, fn func()) bool
}

// Paced is implemented by targets that want a specific reconcile cadence;
// the engine polls Convergence every ReconcileInterval and bounds each
// pass by PassBudget.
type Paced interface {
	ReconcileInterval() time.Duration
	PassBudget() time.Duration
}

// ClockBinder is implemented by targets that keep time (liveness TTLs,
// backoff); the engine hands them its clock so manual-clock tests can
// drive them.
type ClockBinder interface {
	BindClock(clock.Clock)
}

// Registry maps target kinds to implementations. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	targets map[string]Target
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{targets: make(map[string]Target, 4)}
}

// Register adds a target under a kind name. Registering an empty kind,
// a nil target, or a duplicate kind is an error: plugin wiring mistakes
// should fail at startup, not at enactment time.
func (r *Registry) Register(kind string, t Target) error {
	if kind == "" {
		return fmt.Errorf("target: register: empty kind")
	}
	if t == nil {
		return fmt.Errorf("target: register %q: nil target", kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.targets[kind]; dup {
		return fmt.Errorf("target: register %q: already registered", kind)
	}
	r.targets[kind] = t
	return nil
}

// Lookup returns the target registered under kind.
func (r *Registry) Lookup(kind string) (Target, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.targets[kind]
	return t, ok
}

// Kinds returns the registered kind names, sorted.
func (r *Registry) Kinds() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kinds := make([]string, 0, len(r.targets))
	for k := range r.targets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// All returns the registered targets in sorted-kind order.
func (r *Registry) All() []Target {
	r.mu.RLock()
	defer r.mu.RUnlock()
	kinds := make([]string, 0, len(r.targets))
	for k := range r.targets {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	out := make([]Target, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, r.targets[k])
	}
	return out
}
