package shop

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/docstore"
	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
)

// fixture wires db + auth + search + product in-process.
type fixture struct {
	store   *docstore.Store
	db      *httptest.Server
	auth    *httptest.Server
	search  *httptest.Server
	product *httptest.Server

	productSvc *Product
	searchSvc  *Search
	token      string
	// authConns counts the connections the auth service accepted.
	authConns atomic.Int64
}

func newFixture(t *testing.T, productProfile, searchProfile VariantProfile) *fixture {
	t.Helper()
	f := &fixture{store: docstore.New()}
	if _, err := SeedCatalog(f.store, 20); err != nil {
		t.Fatalf("SeedCatalog: %v", err)
	}
	if _, err := SeedUsers(f.store, 3); err != nil {
		t.Fatalf("SeedUsers: %v", err)
	}
	f.db = httptest.NewServer(docstore.NewServer(f.store).Handler())
	t.Cleanup(f.db.Close)

	authSvc := NewAuth(f.db.URL, metrics.NewRegistry())
	f.auth = httptest.NewUnstartedServer(authSvc.Handler())
	f.auth.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			f.authConns.Add(1)
		}
	}
	f.auth.Start()
	t.Cleanup(f.auth.Close)

	f.searchSvc = NewSearch(SearchConfig{
		Profile: searchProfile,
		DBURL:   f.db.URL,
		AuthURL: f.auth.URL,
	})
	f.search = httptest.NewServer(f.searchSvc.Handler())
	t.Cleanup(f.search.Close)

	f.productSvc = NewProduct(ProductConfig{
		Profile:        productProfile,
		DBURL:          f.db.URL,
		AuthURL:        f.auth.URL,
		SearchURL:      f.search.URL,
		BaseConversion: 1.0, // deterministic sales in tests
	})
	f.product = httptest.NewServer(f.productSvc.Handler())
	t.Cleanup(f.product.Close)

	var login map[string]string
	err := httpx.PostJSON(context.Background(), f.auth.URL+"/auth/login",
		loginRequest{Email: "user-0@example.com", Password: "secret"}, &login)
	if err != nil {
		t.Fatalf("login: %v", err)
	}
	f.token = login["token"]
	return f
}

func (f *fixture) get(t *testing.T, path string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, f.product.URL+path, nil)
	req.Header.Set("Authorization", "Bearer "+f.token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func (f *fixture) post(t *testing.T, path, body string) *http.Response {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, f.product.URL+path, strings.NewReader(body))
	req.Header.Set("Authorization", "Bearer "+f.token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func counterValue(r *metrics.Registry, name string, match map[string]string) float64 {
	for _, p := range r.Gather() {
		if p.Name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if p.Labels[k] != v {
				ok = false
			}
		}
		if ok {
			return p.Value
		}
	}
	return 0
}

func TestLoginRequiredForAllRequests(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "product"}, VariantProfile{Version: "search"})
	req, _ := http.NewRequest(http.MethodGet, f.product.URL+"/products", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("unauthenticated status = %d, want 401", resp.StatusCode)
	}
}

func TestBadCredentialsRejected(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "product"}, VariantProfile{Version: "search"})
	err := httpx.PostJSON(context.Background(), f.auth.URL+"/auth/login",
		loginRequest{Email: "user-0@example.com", Password: "wrong"}, nil)
	if err == nil {
		t.Fatal("bad password accepted")
	}
}

func TestBuyDetailsProductsSearchFlow(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "productA"}, VariantProfile{Version: "search"})

	// Buy: writes to the database, no response body (paper's Buy).
	resp := f.post(t, "/products/buy", `{"productId":"p-001"}`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("buy status = %d", resp.StatusCode)
	}

	// Details: read a single product.
	resp = f.get(t, "/products/p-001")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("details status = %d", resp.StatusCode)
	}

	// Products: the large response, now including the buyer count.
	var products []docstore.Document
	req, _ := http.NewRequest(http.MethodGet, f.product.URL+"/products", nil)
	req.Header.Set("Authorization", "Bearer "+f.token)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := jsonDecode(r2, &products); err != nil {
		t.Fatalf("decode products: %v", err)
	}
	if len(products) != 20 {
		t.Fatalf("products = %d", len(products))
	}
	var bought docstore.Document
	for _, p := range products {
		if p["_id"] == "p-001" {
			bought = p
		}
	}
	if bought["buyers"] != float64(1) {
		t.Errorf("buyers = %v, want 1", bought["buyers"])
	}

	// Search: delegates to the search service.
	resp = f.get(t, "/products/search?q=tv")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}

	// Metrics: sales recorded for productA; searches recorded.
	sales := counterValue(f.productSvc.Registry(), "shop_sales_total",
		map[string]string{"version": "productA"})
	if sales != 1 {
		t.Errorf("sales = %v, want 1", sales)
	}
	searches := counterValue(f.searchSvc.Registry(), "shop_searches_total", nil)
	if searches != 1 {
		t.Errorf("searches = %v, want 1", searches)
	}
	reqs := counterValue(f.productSvc.Registry(), "shop_requests_total",
		map[string]string{"op": "buy"})
	if reqs != 1 {
		t.Errorf("buy requests = %v, want 1", reqs)
	}
}

// TestAuthValidationReusesConnections: product and search validate every
// request against auth, and each validation must hand its connection back
// to the client's pool. 50 sequential requests (Details, and Search, which
// validates twice) then reach auth over at most 2 connections, not one per
// validation.
func TestAuthValidationReusesConnections(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "product"}, VariantProfile{Version: "search"})
	for i := 0; i < 50; i++ {
		path := "/products/p-001"
		if i%2 == 1 {
			path = "/products/search?q=tv"
		}
		resp := f.get(t, path)
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}
	if n := f.authConns.Load(); n > 2 {
		t.Fatalf("auth accepted %d connections for 75 validations, want at most 2", n)
	}
}

func TestErrorInjection(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "productB", ErrorRate: 1.0, Seed: 1},
		VariantProfile{Version: "search"})
	resp := f.get(t, "/products/p-002")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	errs := counterValue(f.productSvc.Registry(), "shop_request_errors_total",
		map[string]string{"version": "productB"})
	if errs != 1 {
		t.Errorf("errors = %v, want 1", errs)
	}
}

func TestLatencyInjection(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "product", ExtraLatency: 30 * time.Millisecond},
		VariantProfile{Version: "search"})
	start := time.Now()
	resp := f.get(t, "/products/p-003")
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed < 30*time.Millisecond {
		t.Errorf("elapsed = %v, want ≥ 30ms", elapsed)
	}
}

func TestConversionBoostShiftsSales(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "productA"}, VariantProfile{Version: "search"})
	f.productSvc.cfg.BaseConversion = 0.5
	f.productSvc.gate.profile.ConversionBoost = 1.4 // 70% conversion
	const n = 300
	for i := 0; i < n; i++ {
		resp := f.post(t, "/products/buy", `{"productId":"p-001"}`)
		resp.Body.Close()
	}
	sales := counterValue(f.productSvc.Registry(), "shop_sales_total",
		map[string]string{"version": "productA"})
	share := sales / n
	if share < 0.58 || share > 0.82 {
		t.Errorf("conversion = %.3f, want ≈ 0.70", share)
	}
}

func TestGatewayRouting(t *testing.T) {
	f := newFixture(t, VariantProfile{Version: "product"}, VariantProfile{Version: "search"})
	frontend := httptest.NewServer(NewFrontend().Handler())
	t.Cleanup(frontend.Close)
	gw := httptest.NewServer(NewGateway(frontend.URL, f.product.URL, f.auth.URL).Handler())
	t.Cleanup(gw.Close)

	// / → frontend HTML.
	resp, err := http.Get(gw.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/html") {
		t.Errorf("frontend content type = %q", ct)
	}

	// /auth/login → auth service.
	var login map[string]string
	err = httpx.PostJSON(context.Background(), gw.URL+"/auth/login",
		loginRequest{Email: "user-1@example.com", Password: "secret"}, &login)
	if err != nil || login["token"] == "" {
		t.Fatalf("login via gateway: %v (%v)", err, login)
	}

	// /products → product service (authorized).
	req, _ := http.NewRequest(http.MethodGet, gw.URL+"/products", nil)
	req.Header.Set("Authorization", "Bearer "+login["token"])
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Errorf("products via gateway = %d", r2.StatusCode)
	}
}

func TestSeedCatalogAndUsers(t *testing.T) {
	store := docstore.New()
	ids, err := SeedCatalog(store, 50)
	if err != nil || len(ids) != 50 {
		t.Fatalf("SeedCatalog: %v (%d)", err, len(ids))
	}
	emails, err := SeedUsers(store, 10)
	if err != nil || len(emails) != 10 {
		t.Fatalf("SeedUsers: %v", err)
	}
	n, _ := store.Count("products", nil)
	if n != 50 {
		t.Errorf("products = %d", n)
	}
	// Duplicate users rejected by the unique index.
	if _, err := store.Insert("users", docstore.Document{"email": emails[0]}); err == nil {
		t.Error("duplicate email accepted")
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return httpx.ReadJSONBody(resp.Body, v)
}
