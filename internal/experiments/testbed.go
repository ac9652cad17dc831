// Package experiments reproduces the paper's evaluation (§5): the end-user
// overhead experiment behind Figure 6 and Table 1, the parallel-strategy
// scalability sweep behind Figures 7 and 8, and the parallel-check sweep
// behind Figures 9 and 10.
//
// Everything the paper deployed as Docker containers on twelve cloud VMs
// runs here as separate HTTP servers on loopback: the seven case-study
// services, the two Bifrost proxies, the metrics provider, the engine, and
// the load generator. The network hops are real sockets; only the machines
// are collapsed onto one host.
package experiments

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"bifrost/internal/docstore"
	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/shop"
)

// TestbedConfig sizes the deployed case-study application.
type TestbedConfig struct {
	// Products and Users seed the catalog and user base.
	Products int
	Users    int
	// WithProxies places Bifrost proxies in front of the product and
	// search services (the "inactive"/"active" variations). When false
	// the gateway talks to the stable versions directly ("baseline").
	WithProxies bool
	// ScrapeInterval is the metrics collection period (default 500ms).
	ScrapeInterval time.Duration
	// ProductLatency/ProductALatency/ProductBLatency shape the variants.
	ProductLatency  time.Duration
	ProductALatency time.Duration
	ProductBLatency time.Duration
	// ConversionA/ConversionB bias the A/B business metric (default 1.1
	// vs 0.9, so product A reliably wins the A/B test).
	ConversionA float64
	ConversionB float64
	// Seed fixes all injected randomness.
	Seed int64
}

func (c TestbedConfig) withDefaults() TestbedConfig {
	if c.Products == 0 {
		c.Products = 40
	}
	if c.Users == 0 {
		c.Users = 25
	}
	if c.ScrapeInterval == 0 {
		c.ScrapeInterval = 500 * time.Millisecond
	}
	if c.ConversionA == 0 {
		c.ConversionA = 1.1
	}
	if c.ConversionB == 0 {
		c.ConversionB = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 20160501
	}
	return c
}

// Testbed is the running case-study deployment.
type Testbed struct {
	Config TestbedConfig

	Store        *docstore.Store
	MetricsStore *metrics.Store
	Scraper      *metrics.Scraper

	// Servers by role; ProductVersions/SearchVersions key by version name.
	MetricsSrv      *httpx.Server
	DB              *httpx.Server
	Auth            *httpx.Server
	Frontend        *httpx.Server
	Gateway         *httpx.Server
	ProductVersions map[string]*httpx.Server
	SearchVersions  map[string]*httpx.Server

	ProductProxy    *proxy.Proxy
	ProductProxySrv *httpx.Server
	SearchProxy     *proxy.Proxy
	SearchProxySrv  *httpx.Server

	Engine    *engine.Engine
	EngineSrv *httpx.Server

	ProductIDs []string

	servers []*httpx.Server
}

// NewTestbed deploys the full case-study application on loopback.
func NewTestbed(cfg TestbedConfig) (tb *Testbed, err error) {
	cfg = cfg.withDefaults()
	tb = &Testbed{
		Config:          cfg,
		Store:           docstore.New(),
		MetricsStore:    metrics.NewStore(),
		ProductVersions: make(map[string]*httpx.Server, 3),
		SearchVersions:  make(map[string]*httpx.Server, 2),
	}
	defer func() {
		if err != nil {
			tb.Close()
		}
	}()

	if tb.ProductIDs, err = shop.SeedCatalog(tb.Store, cfg.Products); err != nil {
		return nil, err
	}
	if _, err = shop.SeedUsers(tb.Store, cfg.Users); err != nil {
		return nil, err
	}

	// Metrics provider (the Prometheus container).
	if tb.MetricsSrv, err = tb.serve(metrics.NewServer(tb.MetricsStore).Handler()); err != nil {
		return nil, err
	}
	tb.Scraper = metrics.NewScraper(tb.MetricsStore, cfg.ScrapeInterval, nil)

	// Database (the MongoDB container).
	if tb.DB, err = tb.serve(docstore.NewServer(tb.Store).Handler()); err != nil {
		return nil, err
	}

	// Auth service.
	auth := shop.NewAuth(tb.DB.URL(), metrics.NewRegistry())
	if tb.Auth, err = tb.serve(auth.Handler()); err != nil {
		return nil, err
	}
	tb.scrape("auth:80", tb.Auth.URL()+"/metrics")

	// Search versions: stable (slow) search and fastSearch.
	searchProfiles := []shop.VariantProfile{
		{Version: "search", ExtraLatency: 4 * time.Millisecond, Seed: cfg.Seed + 1},
		{Version: "fastSearch", Seed: cfg.Seed + 2},
	}
	for _, p := range searchProfiles {
		svc := shop.NewSearch(shop.SearchConfig{
			Profile: p, DBURL: tb.DB.URL(), AuthURL: tb.Auth.URL(),
		})
		srv, serr := tb.serve(svc.Handler())
		if serr != nil {
			return nil, serr
		}
		tb.SearchVersions[p.Version] = srv
		tb.scrape(p.Version+":80", srv.URL()+"/metrics")
	}

	// Search proxy (only meaningful with proxies enabled).
	searchURL := tb.SearchVersions["search"].URL()
	if cfg.WithProxies {
		tb.SearchProxy, err = proxy.New("search", proxy.Config{
			Service: "search", Generation: 1,
			Backends: []proxy.Backend{
				{Version: "search", URL: tb.SearchVersions["search"].URL(), Weight: 1},
				{Version: "fastSearch", URL: tb.SearchVersions["fastSearch"].URL(), Weight: 0},
			},
		}, proxy.WithSeed(cfg.Seed+10))
		if err != nil {
			return nil, err
		}
		if tb.SearchProxySrv, err = tb.serve(tb.SearchProxy); err != nil {
			return nil, err
		}
		searchURL = tb.SearchProxySrv.URL()
		tb.scrape("search-proxy:80", tb.SearchProxySrv.URL()+"/_bifrost/metrics")
	}

	// Product versions: stable, A (faster, converts better), B.
	productProfiles := []shop.VariantProfile{
		{Version: "product", ExtraLatency: cfg.ProductLatency, Seed: cfg.Seed + 3},
		{Version: "productA", ExtraLatency: cfg.ProductALatency,
			ConversionBoost: cfg.ConversionA, Seed: cfg.Seed + 4},
		{Version: "productB", ExtraLatency: cfg.ProductBLatency,
			ConversionBoost: cfg.ConversionB, Seed: cfg.Seed + 5},
	}
	for _, p := range productProfiles {
		svc := shop.NewProduct(shop.ProductConfig{
			Profile: p, DBURL: tb.DB.URL(), AuthURL: tb.Auth.URL(),
			SearchURL: searchURL,
		})
		srv, serr := tb.serve(svc.Handler())
		if serr != nil {
			return nil, serr
		}
		tb.ProductVersions[p.Version] = srv
		tb.scrape(p.Version+":80", srv.URL()+"/metrics")
	}

	// Product proxy.
	productURL := tb.ProductVersions["product"].URL()
	if cfg.WithProxies {
		tb.ProductProxy, err = proxy.New("product", proxy.Config{
			Service: "product", Generation: 1,
			Backends: []proxy.Backend{
				{Version: "product", URL: tb.ProductVersions["product"].URL(), Weight: 1},
				{Version: "productA", URL: tb.ProductVersions["productA"].URL(), Weight: 0},
				{Version: "productB", URL: tb.ProductVersions["productB"].URL(), Weight: 0},
			},
		}, proxy.WithSeed(cfg.Seed+11))
		if err != nil {
			return nil, err
		}
		if tb.ProductProxySrv, err = tb.serve(tb.ProductProxy); err != nil {
			return nil, err
		}
		productURL = tb.ProductProxySrv.URL()
		tb.scrape("product-proxy:80", tb.ProductProxySrv.URL()+"/_bifrost/metrics")
	}

	// Frontend and gateway (the nginx entry point).
	if tb.Frontend, err = tb.serve(shop.NewFrontend().Handler()); err != nil {
		return nil, err
	}
	gw := shop.NewGateway(tb.Frontend.URL(), productURL, tb.Auth.URL())
	if tb.Gateway, err = tb.serve(gw.Handler()); err != nil {
		return nil, err
	}

	// Engine with its own registry, scraped like the cAdvisor'd engine
	// container of the paper.
	tb.Engine = engine.New(engine.WithConfigurator(engine.NewFleetConfigurator()))
	if tb.EngineSrv, err = tb.serve(tb.Engine.Registry().Handler()); err != nil {
		return nil, err
	}
	tb.scrape("engine:80", tb.EngineSrv.URL())

	// One synchronous scrape so checks enacted immediately after deployment
	// find fresh series, then the periodic loop takes over.
	tb.Scraper.ScrapeOnce(context.Background())
	tb.Scraper.Start()
	return tb, nil
}

func (tb *Testbed) serve(h http.Handler) (*httpx.Server, error) {
	srv, err := httpx.NewServer("127.0.0.1:0", h)
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	srv.Start()
	tb.servers = append(tb.servers, srv)
	return srv, nil
}

func (tb *Testbed) scrape(instance, url string) {
	tb.Scraper.AddTarget(metrics.Target{URL: url, Instance: instance})
}

// Close shuts the whole deployment down.
func (tb *Testbed) Close() {
	if tb.Engine != nil {
		tb.Engine.Shutdown()
	}
	if tb.Scraper != nil {
		tb.Scraper.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range tb.servers {
		_ = srv.Shutdown(ctx)
	}
	if tb.ProductProxy != nil {
		tb.ProductProxy.Close()
	}
	if tb.SearchProxy != nil {
		tb.SearchProxy.Close()
	}
}
