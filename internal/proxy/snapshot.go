package proxy

import (
	"errors"
	"fmt"
	"net/url"
	"strings"

	"bifrost/internal/core"
	"bifrost/internal/metrics"
)

// routeState is one immutable, fully materialized routing configuration.
// The proxy publishes it through an atomic pointer: the data plane
// (decide, weightedDraw, observe, scheduleShadows) reads one snapshot per
// request and never takes a lock; SetConfig builds a fresh snapshot off
// the hot path and swaps it in. Everything a request needs — parsed
// backend URLs, the cumulative-weight selector, precompiled shadow rules,
// and the metric handles for every routable version — is resolved once
// per config generation at build time.
type routeState struct {
	cfg      Config
	selector *core.Selector
	backends map[string]*backendRef
	shadows  []shadowRule
	// sticky is the assignment table M of this state, nil unless the
	// config is sticky. A new snapshot gets a fresh table because
	// assignments are scoped to one state of the release automaton;
	// swapping the snapshot clears them atomically.
	sticky *stickyStore
}

// backendRef is one routable version with its upstream URL and the metric
// handles observe() hits on every request, resolved once at build time.
type backendRef struct {
	version string
	url     *url.URL
	m       *versionMetrics
}

// versionMetrics caches the per-version instrument handles so the
// per-request path increments atomics directly instead of re-resolving
// name+labels in the registry maps.
type versionMetrics struct {
	requests *metrics.Counter
	errors   *metrics.Counter
	msSum    *metrics.Counter
	msCount  *metrics.Counter
	msLast   *metrics.Gauge
	// record feeds the raw latency sample to an external observer (the
	// federation agent's sketch); nil unless WithLatencyObserver is set.
	record func(ms float64)
}

// shadowRule is one dark-launch rule with its target URL resolved and
// validated at build time, so enqueueing never parses or silently drops.
type shadowRule struct {
	source  string // "" or "*" matches any served version
	target  string
	percent float64
	url     *url.URL
	counter *metrics.Counter
}

// buildRouteState validates cfg and materializes it into a snapshot.
func (p *Proxy) buildRouteState(cfg Config) (*routeState, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("proxy: config has no backends")
	}
	backends := make(map[string]*backendRef, len(cfg.Backends))
	weights := make(map[string]float64, len(cfg.Backends))
	for _, b := range cfg.Backends {
		u, err := parseUpstreamURL(b.URL)
		if err != nil {
			return nil, fmt.Errorf("proxy: bad backend URL %q for version %q", b.URL, b.Version)
		}
		backends[b.Version] = &backendRef{
			version: b.Version,
			url:     u,
			m:       p.newVersionMetrics(b.Version),
		}
		weights[b.Version] = b.Weight
	}
	rc := core.RoutingConfig{Service: cfg.Service, Weights: weights}
	selector, err := core.NewSelector(&rc)
	if err != nil {
		return nil, fmt.Errorf("proxy: %w", err)
	}
	shadows := make([]shadowRule, 0, len(cfg.Shadows))
	for _, sh := range cfg.Shadows {
		if sh.Percent < 0 || sh.Percent > 100 {
			return nil, fmt.Errorf("proxy: shadow percent %v out of range", sh.Percent)
		}
		rule := shadowRule{
			source:  sh.Source,
			target:  sh.Target,
			percent: sh.Percent,
			counter: p.registry.Counter("proxy_shadow_requests_total",
				metrics.Labels{"service": p.service, "version": sh.Target}),
		}
		if sh.TargetURL == "" {
			ref, ok := backends[sh.Target]
			if !ok {
				return nil, fmt.Errorf("proxy: shadow target %q has no backend", sh.Target)
			}
			rule.url = ref.url
		} else {
			// Same scheme/host bar as backend URLs: a scheme-less target
			// used to validate here and then be dropped at enqueue time.
			u, err := parseUpstreamURL(sh.TargetURL)
			if err != nil {
				return nil, fmt.Errorf("proxy: bad shadow target URL %q", sh.TargetURL)
			}
			rule.url = u
		}
		shadows = append(shadows, rule)
	}
	if cfg.Mode == "header" && cfg.Header == "" {
		return nil, errors.New("proxy: header mode without header name")
	}
	st := &routeState{
		cfg:      cfg,
		selector: selector,
		backends: backends,
		shadows:  shadows,
	}
	if cfg.Sticky {
		st.sticky = newStickyStore(p.stickyCap, stickyShardCount, p.mRequests.stickyEvicted)
	}
	return st, nil
}

// parseUpstreamURL parses an upstream base URL, requiring scheme and host.
// An empty port ("host:") is dropped, as http.NewRequest does, so the
// Host of every request built from the URL needs no further rewriting.
func parseUpstreamURL(s string) (*url.URL, error) {
	u, err := url.Parse(s)
	if err != nil {
		return nil, err
	}
	u.Host = strings.TrimSuffix(u.Host, ":")
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("url %q: missing scheme or host", s)
	}
	return u, nil
}

func (p *Proxy) newVersionMetrics(version string) *versionMetrics {
	labels := metrics.Labels{"service": p.service, "version": version}
	vm := &versionMetrics{
		requests: p.registry.Counter("proxy_requests_total", labels),
		errors:   p.registry.Counter("proxy_request_errors_total", labels),
		msSum:    p.registry.Counter("proxy_upstream_ms_sum", labels),
		msCount:  p.registry.Counter("proxy_upstream_ms_count", labels),
		msLast:   p.registry.Gauge("proxy_upstream_ms_last", labels),
	}
	if obs := p.latencyObs; obs != nil {
		vm.record = func(ms float64) { obs("proxy_upstream_ms", labels, ms) }
	}
	return vm
}
