package proxy

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"bifrost/internal/metrics"
)

func TestStickyStoreBoundedWithEvictions(t *testing.T) {
	evictions := metrics.NewRegistry().Counter("evictions", nil)
	s := newStickyStore(64, 4, evictions)

	const n = 200
	for i := 0; i < n; i++ {
		s.put(fmt.Sprintf("client-%d", i), "v1")
	}
	if got := s.len(); got > 64 {
		t.Errorf("store holds %d entries, capacity 64", got)
	}
	// Capacity is split over shards (rounded up), so the floor is a bit
	// below n - 64 but must be in that ballpark.
	if ev := evictions.Value(); ev < n-80 {
		t.Errorf("evictions = %v, want ≈ %d", ev, n-64)
	}
}

func TestStickyStoreClockKeepsHotEntries(t *testing.T) {
	// Single shard makes the clock sweep deterministic.
	s := newStickyStore(8, 1, nil)
	s.put("hot", "v1")
	for i := 0; i < 100; i++ {
		// Touch the hot entry (sets its reference bit), then insert a
		// cold one that forces an eviction once the shard is full.
		if _, ok := s.get("hot"); !ok {
			t.Fatalf("hot entry evicted after %d cold inserts", i)
		}
		s.put(fmt.Sprintf("cold-%d", i), "v2")
	}
	if v, ok := s.get("hot"); !ok || v != "v1" {
		t.Errorf("hot entry = %q, %v; want v1, true", v, ok)
	}
}

func TestStickyStoreRepeatPutKeepsFirstAssignment(t *testing.T) {
	s := newStickyStore(8, 1, nil)
	s.put("u", "v1")
	s.put("u", "v2")
	if v, _ := s.get("u"); v != "v1" {
		t.Errorf("assignment = %q, want first write v1", v)
	}
	if s.len() != 1 {
		t.Errorf("len = %d, want 1", s.len())
	}
}

// TestProxyStickyCapacityEnforced drives a sticky proxy with far more
// distinct clients than its configured capacity: the mapping table must
// stay bounded and the evictions must surface as a metric.
func TestProxyStickyCapacityEnforced(t *testing.T) {
	a := newBackend(t, "A")
	b := newBackend(t, "B")
	cfg := twoBackendConfig(a, b, 50, 50, true)
	p, err := New("product", cfg, WithSeed(7), WithStickyCapacity(32),
		WithTransport(stubTransport{}))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(p.Close)

	const clients = 500
	for i := 0; i < clients; i++ {
		req := newRecordedRequest(t, p, fmt.Sprintf("123e4567-e89b-42d3-a456-4266141%05d", i))
		if req != http.StatusOK {
			t.Fatalf("client %d: status %d", i, req)
		}
	}
	if got := len(p.Mappings()); got > 32 {
		t.Errorf("sticky mappings = %d, want ≤ capacity 32", got)
	}
	var evictions float64
	for _, pt := range p.Registry().Gather() {
		if pt.Name == "proxy_sticky_evictions_total" {
			evictions = pt.Value
		}
	}
	if evictions < clients-48 {
		t.Errorf("proxy_sticky_evictions_total = %v, want ≈ %d", evictions, clients-32)
	}
}

// newRecordedRequest sends one in-process request with the given client
// cookie through the proxy and returns the status code.
func newRecordedRequest(t *testing.T, p *Proxy, cookieVal string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, "http://front/x", nil)
	req.AddCookie(&http.Cookie{Name: CookieName, Value: cookieVal})
	rec := newStatusRecorder()
	p.ServeHTTP(rec, req)
	return rec.status
}

// stubTransport answers every round trip in-process; benchmarks and
// capacity tests use it to measure the proxy alone, not the network.
type stubTransport struct{}

func (stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		_, _ = io.Copy(io.Discard, r.Body)
		_ = r.Body.Close()
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          http.NoBody,
		ContentLength: 0,
		Request:       r,
	}, nil
}

// statusRecorder is a minimal ResponseWriter for in-process routing tests
// and benchmarks (httptest.ResponseRecorder allocates more than we want in
// the contention benchmarks).
type statusRecorder struct {
	h      http.Header
	status int
}

func newStatusRecorder() *statusRecorder {
	return &statusRecorder{h: make(http.Header), status: http.StatusOK}
}

func (r *statusRecorder) Header() http.Header         { return r.h }
func (r *statusRecorder) WriteHeader(code int)        { r.status = code }
func (r *statusRecorder) Write(b []byte) (int, error) { return len(b), nil }

// TestStickyStoreExactBoundSmallCapacity: capacities that do not divide
// evenly by the shard count (or are below it) must still respect the
// configured total bound.
func TestStickyStoreExactBoundSmallCapacity(t *testing.T) {
	for _, capacity := range []int{4, 10, 17} {
		s := newStickyStore(capacity, 16, nil)
		for i := 0; i < 300; i++ {
			s.put(fmt.Sprintf("c-%d", i), "v")
		}
		if got := s.len(); got > capacity {
			t.Errorf("capacity %d: store holds %d entries", capacity, got)
		}
	}
}

// TestStickyStoreOnlyForStickyConfigs: only a sticky config builds an
// assignment store, and each sticky config starts with an empty one.
func TestStickyStoreOnlyForStickyConfigs(t *testing.T) {
	a := newBackend(t, "A")
	b := newBackend(t, "B")
	p, ts := newTestProxy(t, twoBackendConfig(a, b, 50, 50, true))
	send := func() {
		resp := get(t, ts.Client(), ts.URL+"/")
		io.Copy(io.Discard, resp.Body)
	}
	send()
	if n := len(p.Mappings()); n != 1 {
		t.Fatalf("sticky generation 1: %d mappings, want 1", n)
	}

	weighted := twoBackendConfig(a, b, 50, 50, false)
	weighted.Generation = 2
	if err := p.SetConfig(weighted); err != nil {
		t.Fatal(err)
	}
	if st := p.state.Load(); st.sticky != nil {
		t.Error("weighted config built a sticky store")
	}
	send()
	if m := p.Mappings(); m == nil || len(m) != 0 {
		t.Fatalf("weighted generation 2: mappings = %#v, want empty non-nil", m)
	}

	sticky := twoBackendConfig(a, b, 50, 50, true)
	sticky.Generation = 3
	if err := p.SetConfig(sticky); err != nil {
		t.Fatal(err)
	}
	if n := len(p.Mappings()); n != 0 {
		t.Fatalf("sticky generation 3 starts with %d mappings, want 0", n)
	}
	send()
	if n := len(p.Mappings()); n != 1 {
		t.Fatalf("sticky generation 3: %d mappings after one client, want 1", n)
	}
}
