// Package bifrost is the public facade of the Bifrost middleware: a system
// for defining and automatically enacting multi-phase live testing
// strategies (canary releases, dark launches, A/B tests, gradual rollouts),
// reproducing Schermann, Schöni, Leitner & Gall, "Bifrost — Supporting
// Continuous Deployment with Automated Enactment of Multi-Phase Live
// Testing Strategies", Middleware 2016.
//
// The typical flow:
//
//	strategy, err := bifrost.CompileStrategy(yamlSource)
//	eng := bifrost.NewEngine(bifrost.WithHTTPProxies())
//	run, err := eng.Enact(strategy)
//	run.Wait(ctx)
//
// Strategies are written in a YAML DSL (see package bifrost/internal/dsl
// for the full grammar), validated against the formal model of the paper's
// §3, and executed by an engine that reconfigures per-service Bifrost
// proxies on every state change. See README.md for a guided tour and
// examples/ for runnable programs.
package bifrost

import (
	"context"
	"time"

	"bifrost/internal/analysis"
	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/target"
)

// Re-exported core model types. A Strategy is S = ⟨B, A⟩ of the paper's
// formal model; see the internal/core documentation for the semantics.
type (
	// Strategy is a compiled, validated multi-phase live testing strategy.
	Strategy = core.Strategy
	// Service is one architectural component under live testing.
	Service = core.Service
	// Version is one deployed version of a service.
	Version = core.Version
	// State is one phase of the release automaton.
	State = core.State
	// Check is a timed basic or exception check.
	Check = core.Check
	// RoutingConfig is a state's dynamic routing configuration.
	RoutingConfig = core.RoutingConfig
	// ShadowRule duplicates traffic for dark launches.
	ShadowRule = core.ShadowRule

	// Engine enacts strategies.
	Engine = engine.Engine
	// Run tracks one strategy enactment.
	Run = engine.Run
	// Status is a run's progress snapshot.
	Status = engine.Status
	// Event is one observable engine occurrence.
	Event = engine.Event
	// Client talks to a remote engine's /api/v2 REST interface, including
	// the operator controls (pause/resume, promote/rollback) and the live
	// SSE event stream via Watch.
	Client = engine.Client

	// Proxy is the per-service routing proxy.
	Proxy = proxy.Proxy
	// ProxyConfig is a proxy's routing configuration.
	ProxyConfig = proxy.Config
	// Backend is one routable version inside a ProxyConfig.
	Backend = proxy.Backend
)

// Enactment-target plugin types: strategies pick where routing is enacted
// per service (`target:` in the deployment section), and a TargetRegistry
// maps those kinds to implementations — the proxy fleet, client-side flag
// rulesets, declarative shell-outs, or custom plugins.
type (
	// Target enacts routing configs for services that select its kind.
	Target = target.Target
	// TargetRegistry maps target kinds to registered implementations.
	TargetRegistry = target.Registry
	// TargetConvergence is one service's convergence report from a target.
	TargetConvergence = target.Convergence
)

// NewTargetRegistry creates an empty enactment-target registry. Register
// implementations by kind, then pass it to NewEngine via WithTargets.
func NewTargetRegistry() *TargetRegistry { return target.NewRegistry() }

// NewProxyFleetTarget returns the default HTTP proxy fleet, a registrable
// target (conventionally under kind "proxy") that also settles, gates and
// paces its anti-entropy reconciler.
func NewProxyFleetTarget() Target {
	return engine.NewFleetConfigurator()
}

// CompileStrategy compiles YAML DSL source into a validated strategy,
// resolving metric providers from the document's providers section.
// Template sources that expand to several runs are an error here; use
// CompileAllStrategies for those.
func CompileStrategy(src string) (*Strategy, error) {
	return dsl.Compile(src)
}

// ExpandedStrategy is one concrete run stamped out of a strategy source:
// plain sources yield one, matrix templates one per variable combination.
type ExpandedStrategy = dsl.Expanded

// CompileAllStrategies compiles YAML DSL source that may be a matrix
// template (vars/var-transforms/matrix sections), returning every concrete
// run it expands to, each with standalone re-journalable source.
func CompileAllStrategies(src string) ([]ExpandedStrategy, error) {
	return dsl.CompileAll(src)
}

// Compiler gives control over provider resolution (inject custom metric
// queriers, set a default provider).
type Compiler = dsl.Compiler

// NewEngine creates a strategy-enactment engine.
//
// By default routing updates are delivered over HTTP to the proxies named
// in the strategy's deployment section — all replicas of a `proxies:`
// fleet, with bounded retries and background anti-entropy reconciliation.
// Pass WithLocalProxies to wire in-process proxies instead (tests,
// examples, single-binary setups).
func NewEngine(opts ...EngineOption) *Engine {
	cfg := engineConfig{
		enact: engine.WithConfigurator(engine.NewFleetConfigurator()),
		clk:   clock.Real{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	engOpts := []engine.Option{cfg.enact, engine.WithClock(cfg.clk)}
	if cfg.registry != nil {
		engOpts = append(engOpts, engine.WithRegistry(cfg.registry))
	}
	return engine.New(engOpts...)
}

type engineConfig struct {
	// enact selects the enactment targets.
	enact    engine.Option
	clk      clock.Clock
	registry *metrics.Registry
}

// EngineOption configures NewEngine.
type EngineOption func(*engineConfig)

// WithHTTPProxies delivers routing updates over the proxies' admin APIs
// (the default): pushes fan out to every replica of a service's proxy
// fleet with retries, and a per-run reconciler re-pushes the current
// generation to replicas that lag or restart mid-phase.
func WithHTTPProxies() EngineOption {
	return func(c *engineConfig) { c.enact = engine.WithConfigurator(engine.NewFleetConfigurator()) }
}

// WithLocalProxies delivers routing updates directly to in-process proxies
// registered on the returned registrar.
func WithLocalProxies(reg *LocalProxies) EngineOption {
	return func(c *engineConfig) { c.enact = engine.WithConfigurator(reg.lc) }
}

// WithTargets dispatches each service's routing to the enactment target
// its deployment selects (`target:` kind), resolved from the registry.
// Services without an explicit kind use "proxy".
func WithTargets(reg *TargetRegistry) EngineOption {
	return func(c *engineConfig) { c.enact = engine.WithTargets(reg) }
}

// LocalProxies registers in-process proxies by service name.
type LocalProxies struct {
	lc *engine.LocalConfigurator
}

// NewLocalProxies creates an empty registrar.
func NewLocalProxies() *LocalProxies {
	return &LocalProxies{lc: engine.NewLocalConfigurator()}
}

// Register attaches the proxy fronting a service.
func (l *LocalProxies) Register(service string, p *Proxy) {
	l.lc.Register(service, p)
}

// NewProxy creates a Bifrost proxy for one service. The zero ProxyConfig
// starts unconfigured; the engine pushes routing when a strategy runs.
func NewProxy(service string, cfg ProxyConfig, opts ...proxy.Option) (*Proxy, error) {
	return proxy.New(service, cfg, opts...)
}

// Validate checks a hand-built strategy against the formal model's
// structural rules.
func Validate(s *Strategy) error { return s.Validate() }

// Analyze runs the strategy verification and reasoning tools: reachability
// lints, rollout-time bounds, cycle detection.
func Analyze(s *Strategy) (*analysis.Report, error) { return analysis.Analyze(s) }

// ExpectedDuration estimates the expected rollout time under uniform
// transition probabilities.
func ExpectedDuration(s *Strategy) (time.Duration, error) {
	return analysis.ExpectedDuration(s, analysis.UniformProbabilities(s))
}

// DOT renders the release automaton in Graphviz format.
func DOT(s *Strategy) string { return analysis.DOT(s) }

// WaitForCompletion blocks until the run finishes or the context expires,
// returning the final status.
func WaitForCompletion(ctx context.Context, r *Run) (Status, error) {
	if err := r.Wait(ctx); err != nil {
		return r.Status(), err
	}
	return r.Status(), nil
}
