// Package proxy implements the Bifrost proxy: the per-service routing
// component that live testing rides on (paper §4.1–4.2).
//
// One proxy fronts one service. The Bifrost engine pushes routing
// configurations (traffic weights per version, stickiness, cookie vs header
// mode, dark-launch shadow rules); the proxy enforces them on every request:
//
//   - cookie-based routing: the proxy buckets clients itself, identifying
//     them with a Set-Cookie UUID, optionally pinning the assignment for
//     the duration of the state (sticky sessions, required for A/B tests)
//   - header-based routing: an externally injected header names the version
//   - dark launches: a percentage of traffic to a source version is
//     duplicated to a shadow version whose response is discarded
//
// The proxy also instruments every request (request counts, error counts,
// upstream latency) on a metrics registry so the engine's checks can reason
// about the versions it is routing to.
//
// # Data plane
//
// The hot path is lock-free. The active configuration lives in an
// immutable routeState snapshot behind an atomic pointer (see
// snapshot.go): every request loads the pointer once and works on that
// snapshot — parsed backend URLs, the cumulative-weight selector,
// precompiled shadow rules, and pre-resolved metric handles. SetConfig
// builds a new snapshot off the hot path and swaps it in; in-flight
// requests finish on the snapshot they started with. Randomized draws use
// a pool of per-goroutine generators, and sticky assignments live in a
// sharded, capacity-bounded clock-eviction store (sticky.go), built only
// for sticky configs, so neither a shared rand.Rand nor an unbounded map
// serializes or sinks the proxy under heavy traffic.
//
// The relay is cheap per request. The outbound request is assembled from
// the snapshot's parsed backend URL, with no URL formatting or parsing.
// It goes out on a transport the proxy owns, cloned from
// http.DefaultTransport with compression off. Response bodies are copied
// through a pooled buffer: a fixed-length body leaves in one write with
// no buffer allocated per request, and a body of unknown length is
// flushed to the client after each chunk.
//
// docs/architecture.md describes how the proxy, the engine, and the
// metrics provider fit together in a running deployment.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/metrics"
	"bifrost/internal/uuid"
)

// CookieName is the client re-identification cookie the proxy sets.
const CookieName = "bifrost-id"

// maxShadowQueue bounds the asynchronous shadow-delivery queue; beyond it
// shadow requests are dropped (and counted), never blocking live traffic.
const maxShadowQueue = 1024

// copyBufPool holds the buffers response bodies are relayed through, so
// relaying allocates no buffer per request.
var copyBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// maxBodyBytes bounds buffered request bodies. Shadowing requires the body
// to be replayable, so the proxy reads it fully; e-commerce style requests
// are far below this. Without shadow rules bodies stream through unbuffered
// and this limit does not apply.
const maxBodyBytes = 8 << 20

// Config is the routing configuration the engine pushes to a proxy. It is
// the wire form of one core.RoutingConfig materialized with endpoints.
type Config struct {
	// Service names the fronted service; informational.
	Service string `json:"service"`
	// Generation orders config updates; a proxy rejects configs older
	// than the one it runs.
	Generation int64 `json:"generation"`
	// Backends lists the routable versions with their traffic weights.
	Backends []Backend `json:"backends"`
	// Sticky pins client→version assignments until the next config.
	Sticky bool `json:"sticky"`
	// Mode is "cookie" (default) or "header".
	Mode string `json:"mode,omitempty"`
	// Header is the routing header for header mode, e.g. "X-Bifrost-Group".
	Header string `json:"header,omitempty"`
	// Shadows lists dark-launch duplication rules.
	Shadows []Shadow `json:"shadows,omitempty"`
}

// Backend is one routable version of the fronted service.
type Backend struct {
	Version string  `json:"version"`
	URL     string  `json:"url"`
	Weight  float64 `json:"weight"`
}

// Shadow duplicates Percent% of the traffic served by Source to Target.
type Shadow struct {
	// Source version whose traffic is duplicated; "*" or "" = any.
	Source string `json:"source,omitempty"`
	// Target version receiving the duplicate (must be a backend or have
	// TargetURL set).
	Target string `json:"target"`
	// TargetURL overrides the backend lookup for targets that are not
	// normally routable.
	TargetURL string `json:"targetUrl,omitempty"`
	// Percent of matching requests to duplicate, in [0,100].
	Percent float64 `json:"percent"`
}

// Proxy is a single-service Bifrost proxy. Create with New, route traffic
// through ServeHTTP (admin endpoints live under /_bifrost/), and Close when
// done to drain shadow workers and close idle upstream connections.
type Proxy struct {
	service   string
	transport http.RoundTripper
	// owned is the transport New built, closed by Close; nil when
	// WithTransport supplied one, which its caller owns.
	owned     *http.Transport
	registry  *metrics.Registry
	stickyCap int
	// latencyObs, when set, receives every upstream latency sample (name,
	// labels, milliseconds) in addition to the registry instruments — the
	// hook the federation agent's quantile sketches ride on.
	latencyObs func(name string, labels metrics.Labels, ms float64)

	// state is the active routing snapshot; nil until the first valid
	// config. The data plane loads it once per request and never locks.
	state atomic.Pointer[routeState]
	// cfgMu serializes control-plane updates (generation check + swap)
	// only; it is never taken on the request path.
	cfgMu sync.Mutex

	// rngPool hands each goroutine its own generator for weighted and
	// shadow-percent draws; seedBase keeps tests reproducible via WithSeed.
	rngPool  sync.Pool
	seedBase int64
	seedSeq  atomic.Int64

	shadowCh     chan shadowJob
	wg           sync.WaitGroup
	closed       chan struct{}
	closeOnce    sync.Once
	shadowCtx    context.Context
	shadowCancel context.CancelFunc

	adminOnce sync.Once
	adminMux  http.Handler

	// mRequests holds the service-level metric handles (per-version
	// handles live in each snapshot's backendRefs).
	mRequests *metricsSet
}

type shadowJob struct {
	req     *http.Request
	counter *metrics.Counter
}

// Option configures a Proxy.
type Option func(*Proxy)

// WithRegistry attaches the metrics registry the proxy instruments.
func WithRegistry(r *metrics.Registry) Option {
	return func(p *Proxy) { p.registry = r }
}

// WithTransport replaces the upstream round tripper (tests). By default
// the proxy owns a transport cloned from http.DefaultTransport; a
// transport passed here stays its caller's, and Close leaves it open.
func WithTransport(rt http.RoundTripper) Option {
	return func(p *Proxy) { p.transport = rt }
}

// WithSeed makes the proxy's randomized routing decisions reproducible:
// the per-goroutine generators are seeded deterministically from seed.
func WithSeed(seed int64) Option {
	return func(p *Proxy) { p.seedBase = seed }
}

// WithLatencyObserver registers a callback receiving every upstream
// latency observation as a raw sample: the metric name
// ("proxy_upstream_ms"), its service/version labels, and the latency in
// milliseconds. A federation agent hooked up here builds mergeable
// quantile sketches from the full distribution instead of the
// sum/count/last projection the registry keeps. The callback runs on the
// request path and must be cheap and non-blocking.
func WithLatencyObserver(obs func(name string, labels metrics.Labels, ms float64)) Option {
	return func(p *Proxy) { p.latencyObs = obs }
}

// WithStickyCapacity bounds the sticky assignment store to n entries
// (default DefaultStickyCapacity). When full, cold assignments are evicted
// (clock sweep) and counted on proxy_sticky_evictions_total; evicted
// clients are deterministically re-assigned on their next request.
func WithStickyCapacity(n int) Option {
	return func(p *Proxy) { p.stickyCap = n }
}

// New creates a proxy for the named service with an initial configuration.
// cfg may be the zero Config for a proxy that starts unconfigured (requests
// fail 503 until the engine pushes a config).
func New(service string, cfg Config, opts ...Option) (*Proxy, error) {
	shadowCtx, shadowCancel := context.WithCancel(context.Background())
	p := &Proxy{
		service:      service,
		registry:     metrics.NewRegistry(),
		seedBase:     time.Now().UnixNano(),
		shadowCh:     make(chan shadowJob, maxShadowQueue),
		closed:       make(chan struct{}),
		shadowCtx:    shadowCtx,
		shadowCancel: shadowCancel,
	}
	for _, o := range opts {
		o(p)
	}
	if p.transport == nil {
		p.owned = newUpstreamTransport()
		p.transport = p.owned
	}
	p.rngPool.New = func() any {
		return rand.New(rand.NewSource(p.seedBase + p.seedSeq.Add(1)*0x9E3779B9))
	}
	p.mRequests = newMetricsSet(p.registry, service)
	if len(cfg.Backends) > 0 {
		if err := p.SetConfig(cfg); err != nil {
			shadowCancel()
			return nil, err
		}
	}
	const shadowWorkers = 8
	for i := 0; i < shadowWorkers; i++ {
		p.wg.Add(1)
		go p.shadowWorker()
	}
	return p, nil
}

// newUpstreamTransport clones http.DefaultTransport for the proxy's own
// use. Compression is off: the client's Accept-Encoding passes through
// as sent, and a compressed response is relayed as is, keeping its
// Content-Length, instead of being decompressed on the client's behalf.
func newUpstreamTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DisableCompression = true
	return t
}

// Close stops the shadow workers promptly: queued shadow jobs are
// discarded and in-flight shadow requests are cancelled. Shadow responses
// are discarded by design, so dropping them on shutdown loses nothing.
// It then closes the owned transport's idle upstream connections.
// Close is idempotent.
func (p *Proxy) Close() {
	p.closeOnce.Do(func() {
		close(p.closed)
		p.shadowCancel()
		p.wg.Wait()
		if p.owned != nil {
			p.owned.CloseIdleConnections()
		}
	})
}

// Registry exposes the proxy's metrics registry for scraping.
func (p *Proxy) Registry() *metrics.Registry { return p.registry }

// Service returns the fronted service name.
func (p *Proxy) Service() string { return p.service }

// SetConfig atomically replaces the routing configuration. Configurations
// older than the current generation are rejected; sticky assignments are
// cleared because they are scoped to one state of the release automaton.
// The new snapshot is built off the hot path; in-flight requests complete
// on the snapshot they loaded.
func (p *Proxy) SetConfig(cfg Config) error {
	p.cfgMu.Lock()
	defer p.cfgMu.Unlock()
	if cur := p.state.Load(); cur != nil && cfg.Generation < cur.cfg.Generation {
		return fmt.Errorf("proxy %s: %w: %d < %d",
			p.service, ErrStaleGeneration, cfg.Generation, cur.cfg.Generation)
	}
	st, err := p.buildRouteState(cfg)
	if err != nil {
		return err
	}
	p.state.Store(st)
	p.mRequests.generation.Set(float64(cfg.Generation))
	return nil
}

// Config returns a copy of the active configuration.
func (p *Proxy) Config() Config {
	st := p.state.Load()
	if st == nil {
		return Config{}
	}
	cfg := st.cfg
	cfg.Backends = append([]Backend(nil), st.cfg.Backends...)
	cfg.Shadows = append([]Shadow(nil), st.cfg.Shadows...)
	return cfg
}

// Mappings returns the materialized sticky user mappings M of the current
// state, for the dashboard and for tests of the formal model's ⟨u,v,sticky⟩
// triples.
func (p *Proxy) Mappings() []core.UserMapping {
	st := p.state.Load()
	if st == nil || st.sticky == nil {
		return []core.UserMapping{} // non-nil: /_bifrost/mappings serves []
	}
	return st.sticky.mappings()
}

var _ http.Handler = (*Proxy)(nil)

// ServeHTTP routes one request according to the active configuration.
// Admin endpoints are served under /_bifrost/ (see Handler in admin.go).
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/_bifrost/") {
		p.adminHandler().ServeHTTP(w, r)
		return
	}
	p.routeRequest(w, r)
}

func (p *Proxy) routeRequest(w http.ResponseWriter, r *http.Request) {
	st := p.state.Load()
	if st == nil {
		p.mRequests.unrouted.Inc()
		http.Error(w, "no routable backend configured", http.StatusServiceUnavailable)
		return
	}

	// Shadowing needs a replayable body; without shadow rules the body
	// streams straight through to the upstream, unbuffered and unbounded.
	var body []byte
	buffered := false
	if len(st.shadows) > 0 {
		var err error
		body, err = readReplayableBody(r)
		if err != nil {
			http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
			return
		}
		buffered = true
	}

	version, ref, setCookie := p.decide(st, r)
	if setCookie != "" {
		http.SetCookie(w, &http.Cookie{Name: CookieName, Value: setCookie, Path: "/"})
	}

	p.scheduleShadows(st, r, body, version)

	outReq := upstreamRequest(r, ref.url, body, buffered)
	start := time.Now()
	resp, err := p.transport.RoundTrip(outReq)
	observe(ref.m, time.Since(start), resp, err)
	if err != nil {
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	copyEndToEndHeader(w.Header(), resp.Header)
	w.Header().Set("X-Bifrost-Version", version)
	w.WriteHeader(resp.StatusCode)
	copyResponseBody(w, resp)
}

// decide picks the version for this request on one routing snapshot. It
// returns the chosen version, its backend ref, and a cookie value to set
// (when a new client ID was minted). It takes no locks: sticky lookups hit
// the sharded store, weighted draws use a pooled generator.
func (p *Proxy) decide(st *routeState, r *http.Request) (string, *backendRef, string) {
	// Header-based routing: the proxy acts solely on its configuration;
	// the header is injected elsewhere in the process (paper §4.2.2).
	if st.cfg.Mode == "header" {
		if ref, ok := st.backends[r.Header.Get(st.cfg.Header)]; ok {
			return ref.version, ref, ""
		}
		// No (or unknown) group header: fall through to weighted routing.
	}

	id, newCookie := clientID(r)

	if st.cfg.Sticky {
		if v, ok := st.sticky.get(id); ok {
			if ref, ok := st.backends[v]; ok {
				return v, ref, newCookie
			}
		}
		v := st.selector.Assign(id)
		st.sticky.put(id, v)
		return v, st.backends[v], newCookie
	}

	// Non-sticky: every request runs through the decision process again
	// with a fresh weighted draw.
	v := st.selector.Pick(p.randFloat())
	return v, st.backends[v], newCookie
}

// randFloat draws from a pooled per-goroutine generator.
func (p *Proxy) randFloat() float64 {
	rng := p.rngPool.Get().(*rand.Rand)
	x := rng.Float64()
	p.rngPool.Put(rng)
	return x
}

// clientID extracts the UUID cookie or mints a new one.
func clientID(r *http.Request) (id string, newCookie string) {
	if c, err := r.Cookie(CookieName); err == nil && uuid.Valid(c.Value) {
		return c.Value, ""
	}
	u, err := uuid.NewV4()
	if err != nil {
		// Entropy failure: fall back to a time-based pseudo ID rather
		// than refusing traffic.
		id := strconv.FormatInt(time.Now().UnixNano(), 36)
		return id, id
	}
	s := u.String()
	return s, s
}

// scheduleShadows enqueues dark-launch duplicates for the request. Rules
// were precompiled at snapshot build time, so this only draws percentages
// and enqueues.
func (p *Proxy) scheduleShadows(st *routeState, r *http.Request, body []byte, servedVersion string) {
	for i := range st.shadows {
		sh := &st.shadows[i]
		if sh.source != "" && sh.source != "*" && sh.source != servedVersion {
			continue
		}
		if sh.percent < 100 && p.randFloat()*100 >= sh.percent {
			continue
		}
		req := bufferedRequest(p.shadowCtx, r, sh.url, body)
		select {
		case p.shadowCh <- shadowJob{req: req, counter: sh.counter}:
		default:
			p.mRequests.shadowDropped.Inc()
		}
	}
}

func (p *Proxy) shadowWorker() {
	defer p.wg.Done()
	for {
		select {
		case job := <-p.shadowCh:
			resp, err := p.transport.RoundTrip(job.req)
			if err == nil {
				_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
				_ = resp.Body.Close()
			}
			job.counter.Inc()
		case <-p.closed:
			return
		}
	}
}

// observe records one upstream exchange on the snapshot's pre-resolved
// handles; no registry map lookups on the request path.
func observe(m *versionMetrics, elapsed time.Duration, resp *http.Response, err error) {
	m.requests.Inc()
	ms := float64(elapsed.Microseconds()) / 1000.0
	m.msSum.Add(ms)
	m.msCount.Inc()
	m.msLast.Set(ms)
	if m.record != nil {
		m.record(ms)
	}
	if err != nil || (resp != nil && resp.StatusCode >= 500) {
		m.errors.Inc()
	}
}

type metricsSet struct {
	unrouted      *metrics.Counter
	shadowDropped *metrics.Counter
	stickyEvicted *metrics.Counter
	generation    *metrics.Gauge
}

func newMetricsSet(r *metrics.Registry, service string) *metricsSet {
	labels := metrics.Labels{"service": service}
	return &metricsSet{
		unrouted:      r.Counter("proxy_unrouted_total", labels),
		shadowDropped: r.Counter("proxy_shadow_dropped_total", labels),
		stickyEvicted: r.Counter("proxy_sticky_evictions_total", labels),
		generation:    r.Gauge("proxy_config_generation", labels),
	}
}

// readReplayableBody drains the request body into memory so it can be sent
// both to the chosen backend and to shadow targets.
func readReplayableBody(r *http.Request) ([]byte, error) {
	if r.Body == nil || r.Body == http.NoBody {
		return nil, nil
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBodyBytes {
		return nil, errors.New("proxy: body too large")
	}
	return body, nil
}

// upstreamRequest builds the live upstream request. With a buffered body
// (shadowing active) it replays the bytes; otherwise the inbound body
// streams through directly. The request inherits the client's context so
// a disconnect cancels the upstream exchange.
func upstreamRequest(r *http.Request, target *url.URL, body []byte, buffered bool) *http.Request {
	if buffered {
		return bufferedRequest(r.Context(), r, target, body)
	}
	out := buildRequest(r.Context(), r, target)
	if r.Body != nil && r.Body != http.NoBody {
		out.Body = r.Body
		out.ContentLength = r.ContentLength
	}
	return out
}

// bufferedRequest builds a request carrying a buffered body: a
// dark-launch duplicate bound to the proxy's shadow context (cancelled on
// Close), or the live request when shadow rules made the proxy buffer it.
// GetBody lets the transport replay the body when it retries the request
// on a fresh connection.
func bufferedRequest(ctx context.Context, r *http.Request, target *url.URL, body []byte) *http.Request {
	out := buildRequest(ctx, r, target)
	out.ContentLength = int64(len(body))
	if len(body) > 0 {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.GetBody = func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(body)), nil
		}
	}
	return out
}

// buildRequest assembles a bodiless outbound request for target from the
// inbound one: rewritten URL, end-to-end headers only, X-Forwarded-For
// appended. It copies the parsed target instead of formatting and parsing
// a URL string; the request line, Host and headers match what
// http.NewRequestWithContext gives for the formatted URL.
func buildRequest(ctx context.Context, r *http.Request, target *url.URL) *http.Request {
	u := *target
	u.Path = singleJoin(target.Path, r.URL.Path)
	u.RawQuery = r.URL.RawQuery
	out := http.Request{
		Method:     r.Method,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header, len(r.Header)),
		Host:       u.Host,
	}
	copyEndToEndHeader(out.Header, r.Header)
	if prior := r.Header.Get("X-Forwarded-For"); prior != "" {
		out.Header.Set("X-Forwarded-For", prior+", "+remoteIP(r))
	} else if ip := remoteIP(r); ip != "" {
		out.Header.Set("X-Forwarded-For", ip)
	}
	return out.WithContext(ctx)
}

// copyResponseBody relays the upstream body through a pooled buffer.
// The destination hides w's ReadFrom, which would otherwise take over the
// copy with a fresh buffer of its own and split the body into a sniffed
// prefix and the rest. A fixed-length body is thus written in one piece
// per buffer; a body of unknown length (chunked — SSE and other
// incremental streams) is flushed after each chunk so data reaches the
// client as it arrives instead of sitting in the ResponseWriter's buffer.
func copyResponseBody(w http.ResponseWriter, resp *http.Response) {
	bp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bp)
	dst := relayWriter{w: w}
	if resp.ContentLength < 0 {
		dst.rc = http.NewResponseController(w)
	}
	_, _ = io.CopyBuffer(dst, resp.Body, *bp)
}

// relayWriter exposes only the Write of the client response, flushing
// after each write when rc is set.
type relayWriter struct {
	w  io.Writer
	rc *http.ResponseController
}

func (d relayWriter) Write(b []byte) (int, error) {
	n, err := d.w.Write(b)
	if err == nil && d.rc != nil {
		// ErrNotSupported (e.g. a plain recorder) degrades to buffered
		// copying; a failed write ends the relay.
		_ = d.rc.Flush()
	}
	return n, err
}

func remoteIP(r *http.Request) string {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i > 0 {
		host = host[:i]
	}
	return host
}

func singleJoin(a, b string) string {
	switch {
	case a == "" || a == "/":
		if b == "" {
			return "/"
		}
		return b
	case strings.HasSuffix(a, "/") && strings.HasPrefix(b, "/"):
		return a + b[1:]
	case !strings.HasSuffix(a, "/") && !strings.HasPrefix(b, "/") && b != "":
		return a + "/" + b
	default:
		return a + b
	}
}

// hopByHopHeaders is the RFC 9110 §7.6.1 connection-scoped set; these
// fields describe one hop and must not be forwarded by an intermediary.
var hopByHopHeaders = []string{
	"Connection",
	"Keep-Alive",
	"Proxy-Authenticate",
	"Proxy-Authorization",
	"Proxy-Connection", // non-standard but widely sent
	"Te",
	"Trailer",
	"Transfer-Encoding",
	"Upgrade",
}

// copyEndToEndHeader copies src into dst, dropping hop-by-hop fields and
// any field nominated by src's Connection header.
func copyEndToEndHeader(dst, src http.Header) {
	var connNamed map[string]bool
	for _, f := range src.Values("Connection") {
		for _, name := range strings.Split(f, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if connNamed == nil {
				connNamed = make(map[string]bool, 2)
			}
			connNamed[http.CanonicalHeaderKey(name)] = true
		}
	}
	for k, vv := range src {
		if isHopByHop(k) || connNamed[k] {
			continue
		}
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
}

func isHopByHop(canonicalKey string) bool {
	for _, h := range hopByHopHeaders {
		if canonicalKey == h {
			return true
		}
	}
	return false
}
