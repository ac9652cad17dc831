package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"bifrost/internal/core"
	"bifrost/internal/proxy"
	"bifrost/internal/target"
)

// BuildProxyConfig materializes a core.RoutingConfig into the wire config a
// proxy consumes, resolving version names to endpoints. The rendering is
// deterministic — backends in sorted version order, shadows in sorted
// (source, target) order — so identical states produce byte-identical wire
// configs no matter how Go's map iteration shuffles the weights; the fleet
// reconciler's convergence comparison depends on that stability.
func BuildProxyConfig(s *core.Strategy, rc core.RoutingConfig, generation int64) (proxy.Config, error) {
	svc, ok := s.FindService(rc.Service)
	if !ok {
		return proxy.Config{}, fmt.Errorf("engine: routing for unknown service %q", rc.Service)
	}
	cfg := proxy.Config{
		Service:    rc.Service,
		Generation: generation,
		Sticky:     rc.Sticky,
	}
	if rc.Mode == core.RouteHeader {
		cfg.Mode = "header"
		cfg.Header = rc.Header
	}
	// Keep zero-weighted versions routable so shadows and header groups
	// can reference them. NormalizedWeights returns names sorted.
	names, shares, err := rc.NormalizedWeights()
	if err != nil {
		return proxy.Config{}, fmt.Errorf("engine: %w", err)
	}
	for i, name := range names {
		v, ok := svc.FindVersion(name)
		if !ok {
			return proxy.Config{}, fmt.Errorf("engine: unknown version %q of %q", name, rc.Service)
		}
		cfg.Backends = append(cfg.Backends, proxy.Backend{
			Version: name,
			URL:     endpointURL(v.Endpoint),
			Weight:  shares[i],
		})
	}
	for _, sh := range rc.Shadows {
		psh := proxy.Shadow{Source: sh.Source, Target: sh.Target, Percent: sh.Percent}
		if _, routable := rc.Weights[sh.Target]; !routable {
			v, ok := svc.FindVersion(sh.Target)
			if !ok {
				return proxy.Config{}, fmt.Errorf("engine: unknown shadow target %q", sh.Target)
			}
			psh.TargetURL = endpointURL(v.Endpoint)
		}
		cfg.Shadows = append(cfg.Shadows, psh)
	}
	// Shadow rules are independent of each other, so ordering them is
	// purely cosmetic for the proxy but load-bearing for convergence
	// comparisons between renders.
	sort.SliceStable(cfg.Shadows, func(i, j int) bool {
		if cfg.Shadows[i].Source != cfg.Shadows[j].Source {
			return cfg.Shadows[i].Source < cfg.Shadows[j].Source
		}
		return cfg.Shadows[i].Target < cfg.Shadows[j].Target
	})
	return cfg, nil
}

func endpointURL(endpoint string) string {
	if strings.Contains(endpoint, "://") {
		return endpoint
	}
	return "http://" + endpoint
}

// LocalConfigurator is the enactment target for in-process proxies, used
// by tests, examples and the experiment harness (everything runs on one
// machine, like the paper's Docker Swarm but without the containers).
// Each push lands synchronously, so there is no convergence to report.
type LocalConfigurator struct {
	mu      sync.RWMutex
	proxies map[string]*proxy.Proxy
}

var _ target.Target = (*LocalConfigurator)(nil)

// NewLocalConfigurator creates an empty local configurator.
func NewLocalConfigurator() *LocalConfigurator {
	return &LocalConfigurator{proxies: make(map[string]*proxy.Proxy, 4)}
}

// Register attaches the proxy serving a service.
func (lc *LocalConfigurator) Register(service string, p *proxy.Proxy) {
	lc.mu.Lock()
	lc.proxies[service] = p
	lc.mu.Unlock()
}

// Apply implements target.Target.
func (lc *LocalConfigurator) Apply(ctx context.Context, s *core.Strategy,
	state *core.State, rc core.RoutingConfig, generation int64) error {
	lc.mu.RLock()
	p, ok := lc.proxies[rc.Service]
	lc.mu.RUnlock()
	if !ok {
		return fmt.Errorf("engine: no proxy registered for service %q", rc.Service)
	}
	cfg, err := BuildProxyConfig(s, rc, generation)
	if err != nil {
		return err
	}
	return p.SetConfig(cfg)
}

// Convergence implements target.Target: in-process pushes never lag.
func (lc *LocalConfigurator) Convergence(context.Context, string) []target.Convergence {
	return nil
}

// Retire implements target.Target; the proxies keep their last routing.
func (lc *LocalConfigurator) Retire(string) {}
