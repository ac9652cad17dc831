//go:build !race

// Allocation figures differ under the race detector's instrumentation, so
// this regression pin only runs in the plain test/CI lanes.

package proxy

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestRelayHeapBytesPerRequest pins the relay's per-request heap cost
// over real loopback connections: a 1 KiB fixed-length response is
// copied through the pooled buffer, not through ResponseWriter.ReadFrom,
// which allocates a fresh 32 KiB buffer for every response. The figure
// includes the in-process client and backend.
func TestRelayHeapBytesPerRequest(t *testing.T) {
	body := bytes.Repeat([]byte("bifrost "), 128)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	t.Cleanup(upstream.Close)
	_, ts := newTestProxy(t, Config{
		Service: "s", Generation: 1,
		Backends: []Backend{{Version: "v", URL: upstream.URL, Weight: 1}},
	})
	client := ts.Client()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/item", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.AddCookie(&http.Cookie{Name: CookieName, Value: "123e4567-e89b-42d3-a456-426614174000"})
	do := func() {
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || n != int64(len(body)) {
			t.Fatalf("status %d, %d body bytes", resp.StatusCode, n)
		}
	}
	for i := 0; i < 200; i++ {
		do()
	}

	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		do()
	}
	runtime.ReadMemStats(&after)
	perReq := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("heap bytes per proxied request (client, proxy and backend): %.0f", perReq)
	const bound = 16 << 10
	if perReq > bound {
		t.Fatalf("heap bytes per request = %.0f, want ≤ %d", perReq, bound)
	}
}
