package bifrost

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/proxy"
)

// The proxy workload is the bare data plane: one proxy in front of two
// trivial backends, reconfigured every reconfigEvery while open-loop
// traffic flows, then while nproc connections send back to back.
const (
	proxyRate   = 4000 // requests per second in the open loop
	proxyUsers  = 64
	proxyWarmup = 0.10
	// proxyOpen is the open loop's share of the window, warm-up included;
	// the closed loop fills the rest.
	proxyOpen     = 0.7
	reconfigEvery = 100 * time.Millisecond
	// shareTolerance is how far, in share points, the candidate's observed
	// share may sit from the configured one.
	shareTolerance = 0.015
)

// routingShape is one of the paper's three routing configurations; SetConfig
// cycles through them, each time under a new generation.
type routingShape struct {
	name   string
	canary float64 // configured share of traffic the canary serves
	shadow bool    // duplicate all traffic to the canary
	sticky bool
}

var routingShapes = []routingShape{
	{name: "weighted 95/5", canary: 0.05},
	{name: "100% shadow", canary: 0, shadow: true},
	{name: "sticky 50/50", canary: 0.5, sticky: true},
}

// shapeOf returns the shape that generation gen configures.
func shapeOf(gen int64) routingShape { return routingShapes[(gen-1)%int64(len(routingShapes))] }

// backendBody is what the trivial backends return.
var backendBody = []byte(strings.Repeat("bifrost ", 128))

type proxyEnv struct {
	servers
	p                 *proxy.Proxy
	url               string
	stableURL, canURL string
	client            *http.Client
	users             []*user
}

func (e *proxyEnv) close() {
	e.servers.close()
	if e.p != nil {
		e.p.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

func (e *proxyEnv) config(gen int64) proxy.Config {
	sh := shapeOf(gen)
	cfg := proxy.Config{
		Service: "svc", Generation: gen, Sticky: sh.sticky,
		Backends: []proxy.Backend{
			{Version: "stable", URL: e.stableURL, Weight: 1 - sh.canary},
			{Version: "canary", URL: e.canURL, Weight: sh.canary},
		},
	}
	if sh.shadow {
		cfg.Shadows = []proxy.Shadow{{Target: "canary", Percent: 100}}
	}
	return cfg
}

func newProxyEnv(r *run) (_ *proxyEnv, err error) {
	e := &proxyEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	backend := r.tr.Handler("backend", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(backendBody)
	}))
	stable, err := e.serve(backend)
	if err != nil {
		return nil, err
	}
	canary, err := e.serve(backend)
	if err != nil {
		return nil, err
	}
	e.stableURL, e.canURL = stable.URL(), canary.URL()
	if e.p, err = proxy.New("svc", e.config(1), proxy.WithSeed(r.opts.Seed)); err != nil {
		return nil, err
	}
	srv, err := e.serve(r.tr.ProxyHandler(e.p))
	if err != nil {
		return nil, err
	}
	e.url = srv.URL()
	e.client = newClient()
	e.users = make([]*user, proxyUsers)
	for i := range e.users {
		e.users[i] = &user{}
	}
	return e, nil
}

// proxySample is what the load driver observed for one request.
type proxySample struct {
	latency time.Duration
	ok      bool
	canary  bool
	// gen is the generation that certainly served the request, or 0 when a
	// reconfiguration overlapped it.
	gen    int64
	cookie string
}

func runProxy(ctx context.Context, r *run) error {
	e, setup, err := measureSetup(func() (*proxyEnv, error) { return newProxyEnv(r) })
	if err != nil {
		return err
	}
	defer e.close()
	r.set("setup_s", setup)

	n := int(proxyRate * r.opts.Seconds * proxyOpen)
	users := make([]int, n)
	paths := make([]string, n)
	for i := range users {
		users[i] = r.rng.Intn(proxyUsers)
		paths[i] = itemPath(r.rng)
	}
	// Each closed-loop connection draws its users and paths from a source
	// of its own, seeded from the run's.
	conns := runtime.NumCPU()
	connSeeds := make([]int64, conns)
	for c := range connSeeds {
		connSeeds[c] = r.rng.Int63()
	}

	// switches is a sequence lock around every SetConfig: odd while a
	// reconfiguration is in flight. A request that reads the same even
	// value before sending and after its response was routed by
	// generation switches/2 + 1 and no other.
	var switches atomic.Int64
	stop := make(chan struct{})
	reconfigDone := make(chan error, 1)
	go func() {
		t := time.NewTicker(reconfigEvery)
		defer t.Stop()
		for gen := int64(2); ; gen++ {
			select {
			case <-stop:
				reconfigDone <- nil
				return
			case <-t.C:
			}
			switches.Add(1)
			start := r.tr.Now()
			err := e.p.SetConfig(e.config(gen))
			r.tr.End("proxy.set_config", start)
			switches.Add(1)
			if err != nil {
				reconfigDone <- fmt.Errorf("SetConfig generation %d: %w", gen, err)
				return
			}
		}
	}()

	// send performs one request as user u, timed from intended.
	send := func(u int, path string, intended time.Time) proxySample {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.url+path, nil)
		if err != nil {
			return proxySample{}
		}
		s0 := switches.Load()
		status, version, cookie := e.users[u].send(e.client, req, r.tr.RequestHeader())
		s := proxySample{
			latency: time.Since(intended), ok: status == http.StatusOK,
			canary: version == "canary", cookie: cookie,
		}
		if s0%2 == 0 && switches.Load() == s0 {
			s.gen = s0/2 + 1
		}
		return s
	}

	samples := make([]proxySample, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	period := time.Second / proxyRate
	warm := int(r.scaled(proxyWarmup) / period)
	var cpu0 time.Duration
	var allocs0 uint64
	r.late = openLoop(ctx, start, evenly(n, period), func(i int, intended time.Time) {
		if i == warm {
			cpu0, allocs0 = cpuTime(), mallocs()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			samples[i] = send(users[i], paths[i], intended)
		}()
	})
	wg.Wait()
	cpu, allocs := cpuTime()-cpu0, mallocs()-allocs0
	r.set("mem_peak_mb", memPeakMB())

	// Closed loop until the window ends: each connection sends its next
	// request as soon as the previous one completes.
	closedStart := time.Now()
	closedEnd := start.Add(r.scaled(1))
	closed := make([][]proxySample, conns)
	for c := range closed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(connSeeds[c]))
			for {
				closed[c] = append(closed[c], send(rng.Intn(proxyUsers), itemPath(rng), time.Now()))
				if ctx.Err() != nil || !time.Now().Before(closedEnd) {
					return
				}
			}
		}()
	}
	wg.Wait()
	closedTime := time.Since(closedStart)
	close(stop)
	if err := <-reconfigDone; err != nil {
		return err
	}
	r.window = time.Since(start.Add(r.scaled(proxyWarmup)))

	measured := make([]time.Duration, 0, n-warm)
	for _, s := range samples[warm:] {
		measured = append(measured, s.latency)
	}
	lat := r.setLatency(measured)
	r.set("req_p50_ms", quantile(lat, 0.5))
	r.set("req_p99_ms", quantile(lat, 0.99))
	r.set("cpu_ms_per_op", cpu.Seconds()*1000/float64(len(measured)))
	r.set("proxy.allocs_per_request", float64(allocs)/float64(len(measured)))

	served := 0
	for _, c := range closed {
		for _, s := range c {
			if s.ok {
				served++
			}
		}
		samples = append(samples, c...)
	}
	r.set("req_max_rps", float64(served)/closedTime.Seconds())
	r.res.Attempted = len(samples)
	for _, s := range samples {
		if !s.ok {
			r.res.Failed++
		}
	}
	r.set("req_error_ratio", float64(r.res.Failed)/float64(r.res.Attempted))
	if r.res.Failed > 0 {
		r.fail("proxy: %d of %d requests failed", r.res.Failed, r.res.Attempted)
	}
	checkRouting(r, samples)
	return nil
}

// itemPath draws the path of one request.
func itemPath(rng *rand.Rand) string { return "/item/" + strconv.Itoa(rng.Intn(10_000)) }

// checkRouting verifies that the proxy enforced each routing shape: the
// candidate's share of non-sticky traffic matches its configured share,
// and inside a sticky window every user stays on the version the user
// selection function assigns to its cookie.
func checkRouting(r *run, samples []proxySample) {
	type tally struct{ n, canary int }
	shares := map[string]*tally{}
	sticky, err := core.NewSelector(&core.RoutingConfig{
		Service: "svc", Weights: map[string]float64{"stable": 0.5, "canary": 0.5},
	})
	if err != nil {
		r.fail("proxy: sticky selector: %v", err)
		return
	}
	// A user's identity is the cookie it sends; its first requests carry
	// none yet and are left out of the sticky checks.
	type window struct {
		gen    int64
		cookie string
	}
	seen := map[window]bool{}
	switched, misassigned := 0, 0
	for _, s := range samples {
		if !s.ok || s.gen == 0 {
			continue
		}
		sh := shapeOf(s.gen)
		if !sh.sticky {
			t := shares[sh.name]
			if t == nil {
				t = &tally{}
				shares[sh.name] = t
			}
			t.n++
			if s.canary {
				t.canary++
			}
			continue
		}
		if s.cookie == "" {
			continue
		}
		w := window{s.gen, s.cookie}
		if prev, ok := seen[w]; ok && prev != s.canary {
			switched++
		}
		seen[w] = s.canary
		if (sticky.Assign(s.cookie) == "canary") != s.canary {
			misassigned++
		}
	}
	for _, sh := range routingShapes {
		if sh.sticky {
			continue
		}
		t := shares[sh.name]
		if t == nil || t.n == 0 {
			r.fail("proxy: no requests observed under %s", sh.name)
			continue
		}
		got := float64(t.canary) / float64(t.n)
		// Below a few thousand samples the binomial noise of a correct
		// proxy exceeds the tolerance; five standard errors keep small
		// runs from failing by chance.
		tol := math.Max(shareTolerance, 5*math.Sqrt(sh.canary*(1-sh.canary)/float64(t.n)))
		if math.Abs(got-sh.canary) > tol {
			r.fail("proxy: canary served %.2f%% under %s, configured %.2f%% (±%.2f)",
				100*got, sh.name, 100*sh.canary, 100*tol)
		}
	}
	if switched > 0 {
		r.fail("proxy: %d requests switched version inside a sticky window", switched)
	}
	if misassigned > 0 {
		r.fail("proxy: %d sticky requests not routed by their cookie's assignment", misassigned)
	}
}
