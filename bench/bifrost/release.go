package bifrost

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"bifrost/internal/docstore"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/shop"
)

// The release workload is the paper's §5.1 experiment: open-loop shop
// traffic while the engine enacts the four-phase release.
const (
	releaseRate     = 200 // user requests per second
	releaseUsers    = 32
	releaseProducts = 40
	scrapeEvery     = 500 * time.Millisecond
	// releaseCheckExecs is how often each canary error check runs.
	releaseCheckExecs = 4
)

// Shares of the measured window: a warm-up, then canary, dark launch,
// sticky A/B test, and a ten-step gradual rollout, ending before the
// traffic does.
const (
	releaseWarmup  = 0.10
	releaseCanary  = 0.24
	releaseDark    = 0.18
	releaseAB      = 0.18
	releaseStep    = 0.02
	releaseMaxWait = 60 * time.Second
)

// Request kinds of the user mix (Details:Search:Buy = 1:1:1). The catalog
// listing is left out: its handler reads every order on each call, so its
// cost grows through the run and belongs to the demo app, not Bifrost.
const (
	kindDetails = iota
	kindSearch
	kindBuy
	numKinds
)

var searchTerms = []string{"tv", "laptop", "phone", "camera", "router", "speaker"}

type releaseEnv struct {
	servers
	store        *docstore.Store
	metricsStore *metrics.Store
	scraper      *metrics.Scraper
	proxies      []*proxy.Proxy
	eng          *engine.Engine
	registry     *metrics.Registry
	journalDir   string
	productIDs   []string
	users        []*user
	client       *http.Client

	gatewayURL, productProxyURL, metricsURL string
	productURLs                             map[string]string
}

func (e *releaseEnv) close() {
	if e.eng != nil {
		e.eng.Shutdown()
	}
	e.servers.close()
	for _, p := range e.proxies {
		p.Close()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
	if e.journalDir != "" {
		_ = os.RemoveAll(e.journalDir)
	}
}

// newReleaseEnv deploys the shop behind its gateway and two Bifrost
// proxies, a metrics provider scraping every component, and a journaled
// engine pushing routing through the HTTP fleet configurator, as
// bifrost-engine -journal-dir runs. Every handler is wrapped for tracing.
func newReleaseEnv(ctx context.Context, r *run) (_ *releaseEnv, err error) {
	tr := r.tr
	e := &releaseEnv{
		store:        docstore.New(),
		metricsStore: metrics.NewStore(),
		productURLs:  map[string]string{},
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.productIDs, err = shop.SeedCatalog(e.store, releaseProducts); err != nil {
		return nil, err
	}
	if _, err = shop.SeedUsers(e.store, releaseUsers); err != nil {
		return nil, err
	}
	metricsSrv, err := e.serve(tr.MetricsHandler(metrics.NewServer(e.metricsStore).Handler()))
	if err != nil {
		return nil, err
	}
	e.metricsURL = metricsSrv.URL()
	e.scraper = metrics.NewScraper(e.metricsStore, scrapeEvery, nil)
	scrape := func(instance, u string) {
		e.scraper.AddTarget(metrics.Target{URL: u, Instance: instance})
	}

	db, err := e.serve(tr.Handler("shop.db", docstore.NewServer(e.store).Handler()))
	if err != nil {
		return nil, err
	}
	auth := shop.NewAuth(db.URL(), nil)
	authSrv, err := e.serve(tr.Handler("shop.auth", auth.Handler()))
	if err != nil {
		return nil, err
	}
	scrape("auth:80", authSrv.URL()+"/metrics")

	seed := r.opts.Seed
	search := map[string]string{}
	for i, v := range []string{"search", "fastSearch"} {
		svc := shop.NewSearch(shop.SearchConfig{
			Profile: shop.VariantProfile{Version: v, Seed: seed + int64(i) + 1},
			DBURL:   db.URL(), AuthURL: authSrv.URL(),
		})
		srv, err := e.serve(tr.Handler("shop.serve", svc.Handler()))
		if err != nil {
			return nil, err
		}
		search[v] = srv.URL()
		scrape(v+":80", srv.URL()+"/metrics")
	}
	searchProxyURL, err := e.proxy("search", seed+10, []proxy.Backend{
		{Version: "search", URL: search["search"], Weight: 1},
		{Version: "fastSearch", URL: search["fastSearch"], Weight: 0},
	}, tr)
	if err != nil {
		return nil, err
	}
	scrape("search-proxy:80", searchProxyURL+"/_bifrost/metrics")

	// Product A converts far better than B, so the A/B test has one
	// winner at every seed and scale.
	profiles := []shop.VariantProfile{
		{Version: "product", Seed: seed + 3},
		{Version: "productA", ConversionBoost: 1.5, Seed: seed + 4},
		{Version: "productB", ConversionBoost: 0.5, Seed: seed + 5},
	}
	for _, p := range profiles {
		svc := shop.NewProduct(shop.ProductConfig{
			Profile: p, DBURL: db.URL(), AuthURL: authSrv.URL(), SearchURL: searchProxyURL,
		})
		srv, err := e.serve(tr.Handler("shop.serve", svc.Handler()))
		if err != nil {
			return nil, err
		}
		e.productURLs[p.Version] = srv.URL()
		scrape(p.Version+":80", srv.URL()+"/metrics")
	}
	if e.productProxyURL, err = e.proxy("product", seed+11, []proxy.Backend{
		{Version: "product", URL: e.productURLs["product"], Weight: 1},
		{Version: "productA", URL: e.productURLs["productA"], Weight: 0},
		{Version: "productB", URL: e.productURLs["productB"], Weight: 0},
	}, tr); err != nil {
		return nil, err
	}
	scrape("product-proxy:80", e.productProxyURL+"/_bifrost/metrics")

	frontend, err := e.serve(shop.NewFrontend().Handler())
	if err != nil {
		return nil, err
	}
	gw, err := e.serve(tr.Handler("shop.gateway", shop.NewGateway(frontend.URL(), e.productProxyURL, authSrv.URL()).Handler()))
	if err != nil {
		return nil, err
	}
	e.gatewayURL = gw.URL()

	if e.eng, e.registry, e.journalDir, err = newJournaledEngine(); err != nil {
		return nil, err
	}
	engineSrv, err := e.serve(e.registry.Handler())
	if err != nil {
		return nil, err
	}
	scrape("engine:80", engineSrv.URL())

	e.scraper.ScrapeOnce(ctx)
	e.client = newClient()
	if e.users, err = login(ctx, e.gatewayURL, releaseUsers); err != nil {
		return nil, err
	}
	return e, nil
}

// proxy starts a Bifrost proxy for service and returns its URL.
func (e *releaseEnv) proxy(service string, seed int64, backends []proxy.Backend, tr *Tracer) (string, error) {
	p, err := proxy.New(service, proxy.Config{Service: service, Generation: 1, Backends: backends}, proxy.WithSeed(seed))
	if err != nil {
		return "", err
	}
	e.proxies = append(e.proxies, p)
	srv, err := e.serve(tr.ProxyHandler(p))
	if err != nil {
		return "", err
	}
	return srv.URL(), nil
}

func (e *releaseEnv) strategyYAML(r *run) string {
	canary := r.scaled(releaseCanary)
	return fmt.Sprintf(`
name: product-release
deployment:
  services:
    - service: product
      proxy: %s
      versions:
        - name: product
          endpoint: %s
        - name: productA
          endpoint: %s
        - name: productB
          endpoint: %s
providers:
  prometheus: %s
strategy:
  start: canary
  phases:
    - phase: canary
      duration: %s
      routes:
        - route:
            service: product
            weights: {product: 90, productA: 5, productB: 5}
      checks:
        - metric:
            name: a_errors
            provider: prometheus
            query: shop_request_errors_total{version="productA"}
            intervalTime: %s
            intervalLimit: %d
            threshold: %d
            validator: "<5"
        - metric:
            name: b_errors
            provider: prometheus
            query: shop_request_errors_total{version="productB"}
            intervalTime: %s
            intervalLimit: %d
            threshold: %d
            validator: "<5"
      on:
        success: darklaunch
        failure: rollback
    - phase: darklaunch
      duration: %s
      routes:
        - route:
            service: product
            weights: {product: 100}
            shadows:
              - target: productA
                percent: 100
              - target: productB
                percent: 100
      on:
        success: abtest
        failure: rollback
    - phase: abtest
      duration: %s
      routes:
        - route:
            service: product
            weights: {productA: 50, productB: 50}
            sticky: true
      checks:
        - metric:
            name: sales_compare
            provider: prometheus
            query: shop_sales_total{version="productA"} - shop_sales_total{version="productB"}
            intervalLimit: 1
            validator: ">=0"
      thresholds: [0]
      transitions: [rollout-b, rollout-a]
    - phase: rollout-a
      gradual:
        service: product
        stable: product
        candidate: productA
        from: 10
        to: 100
        step: 10
        interval: %s
      on:
        success: done-a
    - phase: rollout-b
      gradual:
        service: product
        stable: product
        candidate: productB
        from: 10
        to: 100
        step: 10
        interval: %s
      on:
        success: done-b
    - phase: done-a
      routes:
        - route:
            service: product
            weights: {productA: 100}
    - phase: done-b
      routes:
        - route:
            service: product
            weights: {productB: 100}
    - phase: rollback
      routes:
        - route:
            service: product
            weights: {product: 100}
`,
		e.productProxyURL, e.productURLs["product"], e.productURLs["productA"], e.productURLs["productB"],
		e.metricsURL,
		ms(canary),
		ms(canary/releaseCheckExecs), releaseCheckExecs, releaseCheckExecs,
		ms(canary/releaseCheckExecs), releaseCheckExecs, releaseCheckExecs,
		ms(r.scaled(releaseDark)), ms(r.scaled(releaseAB)),
		ms(r.scaled(releaseStep)), ms(r.scaled(releaseStep)),
	)
}

// request builds one user request of the given kind against the gateway.
func (e *releaseEnv) request(ctx context.Context, kind int, product, term string) (*http.Request, error) {
	switch kind {
	case kindDetails:
		return http.NewRequestWithContext(ctx, http.MethodGet, e.gatewayURL+"/products/"+product, nil)
	case kindSearch:
		return http.NewRequestWithContext(ctx, http.MethodGet, e.gatewayURL+"/products/search?q="+url.QueryEscape(term), nil)
	default:
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.gatewayURL+"/products/buy",
			strings.NewReader(`{"productId":"`+product+`"}`))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
		return req, err
	}
}

func runRelease(ctx context.Context, r *run) error {
	e, setup, err := measureSetup(func() (*releaseEnv, error) { return newReleaseEnv(ctx, r) })
	if err != nil {
		return err
	}
	defer e.close()
	r.set("setup_s", setup)

	// Inputs, all from the seed: who sends what, in which order.
	n := int(releaseRate * r.opts.Seconds)
	kinds := make([]int, n)
	users := make([]int, n)
	products := make([]string, n)
	terms := make([]string, n)
	for i := 0; i < n; i++ {
		kinds[i] = r.rng.Intn(numKinds)
		users[i] = r.rng.Intn(len(e.users))
		products[i] = e.productIDs[r.rng.Intn(len(e.productIDs))]
		terms[i] = searchTerms[r.rng.Intn(len(searchTerms))]
	}
	src := e.strategyYAML(r)

	scrapeCtx, stopScrape := context.WithCancel(ctx)
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		e.scrapeLoop(scrapeCtx, r.tr)
	}()
	defer func() {
		stopScrape()
		<-scrapeDone
	}()

	lat := make([]time.Duration, n)
	ok := make([]bool, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	period := time.Second / releaseRate
	trafficCtx, stopTraffic := context.WithCancel(ctx)
	trafficDone := make(chan struct{})
	defer func() {
		stopTraffic()
		<-trafficDone
	}()
	go func() {
		defer close(trafficDone)
		r.late = openLoop(trafficCtx, start, evenly(n, period), func(i int, intended time.Time) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := e.request(trafficCtx, kinds[i], products[i], terms[i])
				if err != nil {
					return
				}
				status, _, _ := e.users[users[i]].send(e.client, req, r.tr.RequestHeader())
				lat[i] = time.Since(intended)
				ok[i] = status > 0 && status < 400
			}()
		})
		wg.Wait()
	}()

	warmEnd := start.Add(r.scaled(releaseWarmup))
	time.Sleep(time.Until(warmEnd))
	cpu0, allocs0 := cpuTime(), mallocs()
	t := r.tr.Now()
	s, err := dsl.Compile(src)
	r.tr.End("dsl.compile", t)
	if err != nil {
		return fmt.Errorf("compile release strategy: %w", err)
	}
	t = r.tr.Now()
	release, err := e.eng.EnactSource(s, src)
	r.tr.End("engine.enact", t)
	if err != nil {
		return fmt.Errorf("enact release strategy: %w", err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, r.scaled(1)+releaseMaxWait)
	defer cancel()
	_ = release.Wait(waitCtx)
	<-trafficDone
	cpu := cpuTime() - cpu0
	allocs := mallocs() - allocs0
	r.window = time.Since(warmEnd)
	r.set("mem_peak_mb", memPeakMB())

	measured := lat[int(r.scaled(releaseWarmup)/period):]
	reqMs := r.setLatency(measured)
	r.set("req_p50_ms", quantile(reqMs, 0.5))
	r.set("req_p99_ms", quantile(reqMs, 0.99))
	r.set("cpu_ms_per_op", cpu.Seconds()*1000/float64(len(measured)))
	r.set("proxy.allocs_per_request", float64(allocs)/float64(len(measured)))
	r.set("journal.records", counterValue(e.registry, "engine_journal_records_total"))
	r.set("journal.bytes_per_run", dirBytes(e.journalDir))
	r.expectedChecks = 2*releaseCheckExecs + 1

	// Operations: every user request plus the release itself.
	r.res.Attempted = n + 1
	for _, v := range ok {
		if !v {
			r.res.Failed++
		}
	}
	r.set("req_error_ratio", float64(r.res.Failed)/float64(n))
	if r.res.Failed > 0 {
		r.fail("release: %d of %d user requests failed", r.res.Failed, n)
	}
	r.set("run_failure_ratio", 0)
	if st := release.Status(); st.State != engine.RunCompleted || st.Current != "done-a" {
		r.res.Failed++
		r.set("run_failure_ratio", 1)
		r.fail("release: ended %s in %q, want completed in the A/B winner \"done-a\"", st.State, st.Current)
	}
	return nil
}

// scrapeLoop pulls every target every scrapeEvery, as Scraper.Start does,
// timing each pass as a metrics.scrape span.
func (e *releaseEnv) scrapeLoop(ctx context.Context, tr *Tracer) {
	t := time.NewTicker(scrapeEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			start := tr.Now()
			e.scraper.ScrapeOnce(ctx)
			tr.End("metrics.scrape", start)
		case <-ctx.Done():
			return
		}
	}
}
