package experiments

import (
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/loadgen"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/shop"
)

// TestCanaryFailureTriggersExceptionRollback exercises the full stack of
// the paper's safety story: a canary version that throws 500s under real
// traffic must be caught by an exception check and rolled back immediately,
// without waiting for the end of the state.
func TestCanaryFailureTriggersExceptionRollback(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	tb, err := NewTestbed(TestbedConfig{WithProxies: true, Products: 10, Users: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	// Deploy a broken product version: 60% injected 500s.
	broken := shop.NewProduct(shop.ProductConfig{
		Profile: shop.VariantProfile{
			Version: "productBroken", ErrorRate: 0.6, Seed: 3,
		},
		DBURL:     tb.DB.URL(),
		AuthURL:   tb.Auth.URL(),
		SearchURL: tb.SearchVersions["search"].URL(),
	})
	brokenSrv, err := newServer(t, broken.Handler())
	if err != nil {
		t.Fatal(err)
	}
	tb.Scraper.AddTarget(metrics.Target{
		URL: brokenSrv + "/metrics", Instance: "productBroken:80",
	})

	yaml := fmt.Sprintf(`
name: broken-canary
deployment:
  services:
    - service: product
      proxy: %s
      versions:
        - name: product
          endpoint: %s
        - name: productBroken
          endpoint: %s
providers:
  prometheus: %s
strategy:
  phases:
    - phase: canary
      description: 30%% canary of the broken version
      duration: 30s
      routes:
        - route:
            service: product
            weights: {product: 70, productBroken: 30}
      checks:
        - exception:
            name: error_explosion
            provider: prometheus
            query: shop_request_errors_total{version="productBroken"}
            intervalTime: 400ms
            intervalLimit: 60
            validator: "<3"
            fallback: rollback
      on:
        success: promoted
        failure: rollback
    - phase: promoted
      routes:
        - route:
            service: product
            weights: {productBroken: 100}
    - phase: rollback
      routes:
        - route:
            service: product
            weights: {product: 100}
`, tb.ProductProxySrv.URL(),
		tb.ProductVersions["product"].URL(),
		brokenSrv,
		tb.MetricsSrv.URL())

	strategy, err := dsl.Compile(yaml)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	run, err := tb.Engine.Enact(strategy)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}

	// Drive traffic so the broken canary actually produces errors.
	start := time.Now()
	_, err = loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:    tb.Gateway.URL(),
		RPS:        60,
		Duration:   6 * time.Second,
		Users:      5,
		ProductIDs: tb.ProductIDs,
		Seed:       17,
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if werr := run.Wait(ctx); werr != nil {
		t.Fatalf("run did not finish: %v (status %+v)", werr, run.Status())
	}
	st := run.Status()
	if st.State != engine.RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "rollback" {
		t.Fatalf("path = %+v, want canary→rollback", st.Path)
	}
	// The exception must interrupt well before the 30s state duration.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Errorf("rollback took %v, want immediate interrupt", elapsed)
	}
	// An exception event must have been published.
	sawException := false
	for _, ev := range tb.Engine.RecentEvents(0) {
		if ev.Type == engine.EventExceptionTriggered {
			sawException = true
		}
	}
	if !sawException {
		t.Error("no exception_triggered event")
	}
	// And the proxy must be back on 100% stable.
	cfg := tb.ProductProxy.Config()
	for _, b := range cfg.Backends {
		switch b.Version {
		case "product":
			if b.Weight <= 0 {
				t.Errorf("stable weight = %v after rollback", b.Weight)
			}
		default:
			if b.Weight != 0 {
				t.Errorf("version %s weight = %v after rollback", b.Version, b.Weight)
			}
		}
	}
}

// TestRemoteProxyReconfigurationOverHTTP covers the production wiring: the
// engine reaches proxies via their admin API (the proxy fleet), exactly as
// cmd/bifrost-engine and cmd/bifrost-proxy are deployed.
func TestRemoteProxyReconfigurationOverHTTP(t *testing.T) {
	tb, err := NewTestbed(TestbedConfig{WithProxies: true, Products: 4, Users: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()

	before, err := (&proxy.Client{BaseURL: tb.ProductProxySrv.URL()}).GetConfig(context.Background())
	if err != nil {
		t.Fatalf("GetConfig: %v", err)
	}

	yaml := fmt.Sprintf(`
name: remote-wiring
deployment:
  services:
    - service: product
      proxy: %s
      versions:
        - name: product
          endpoint: %s
        - name: productA
          endpoint: %s
providers:
  prometheus: %s
strategy:
  phases:
    - phase: shift
      duration: 300ms
      routes:
        - route:
            service: product
            weights: {product: 50, productA: 50}
      on:
        success: end
    - phase: end
      routes:
        - route:
            service: product
            weights: {productA: 100}
`, tb.ProductProxySrv.URL(),
		tb.ProductVersions["product"].URL(),
		tb.ProductVersions["productA"].URL(),
		tb.MetricsSrv.URL())

	strategy, err := dsl.Compile(yaml)
	if err != nil {
		t.Fatal(err)
	}
	run, err := tb.Engine.Enact(strategy)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := run.Wait(ctx); err != nil {
		t.Fatalf("wait: %v (status %+v)", err, run.Status())
	}
	after := tb.ProductProxy.Config()
	if after.Generation <= before.Generation {
		t.Errorf("generation did not advance: %d → %d", before.Generation, after.Generation)
	}
	for _, b := range after.Backends {
		if b.Version == "productA" && b.Weight != 1 {
			t.Errorf("productA weight = %v, want 1 (normalized 100%%)", b.Weight)
		}
	}
}

func newServer(t *testing.T, h http.Handler) (string, error) {
	t.Helper()
	srv, err := httpx.NewServer("127.0.0.1:0", h)
	if err != nil {
		return "", err
	}
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv.URL(), nil
}
