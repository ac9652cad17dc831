package flag

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/httpx"
)

func testRuleset(gen int64) Ruleset {
	return Ruleset{
		Service:    "search",
		Strategy:   "canary",
		Generation: gen,
		Sticky:     true,
		Variants: []Variant{
			{Name: "canary", Endpoint: "http://127.0.0.1:9102", Weight: 0.1},
			{Name: "stable", Endpoint: "http://127.0.0.1:9101", Weight: 0.9},
		},
	}
}

func TestDecideStickyMatchesProxySelector(t *testing.T) {
	c := &Client{Service: "search"}
	if _, ok := c.Decide("alice"); ok {
		t.Error("Decide succeeded before any ruleset was loaded")
	}
	if err := c.Load(testRuleset(1)); err != nil {
		t.Fatal(err)
	}

	// η is a pure function of (config, user): the SDK's sticky assignment
	// must agree with the proxy-side selector for every user.
	rc := core.RoutingConfig{Service: "search",
		Weights: map[string]float64{"stable": 0.9, "canary": 0.1}}
	sel, err := core.NewSelector(&rc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		user := fmt.Sprintf("user-%d", i)
		d, ok := c.Decide(user)
		if !ok {
			t.Fatal("no decision")
		}
		if want := sel.Assign(user); d.Version != want {
			t.Fatalf("user %s: SDK chose %q, proxy selector %q", user, d.Version, want)
		}
		if again, _ := c.Decide(user); again.Version != d.Version {
			t.Fatalf("user %s: sticky decision changed", user)
		}
		if d.Generation != 1 {
			t.Errorf("generation = %d", d.Generation)
		}
	}
}

func TestDecideWeightedSplit(t *testing.T) {
	c := &Client{Service: "search"}
	set := testRuleset(1)
	set.Sticky = false
	if err := c.Load(set); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		d, ok := c.Decide(fmt.Sprintf("u%d", i))
		if !ok {
			t.Fatal("no decision")
		}
		counts[d.Version]++
	}
	// 10% canary ± generous slack.
	if counts["canary"] < 100 || counts["canary"] > 350 {
		t.Errorf("canary share = %d/2000, want ≈200", counts["canary"])
	}
	if counts["canary"]+counts["stable"] != 2000 {
		t.Errorf("counts = %v", counts)
	}
}

func TestDecideHeaderMode(t *testing.T) {
	c := &Client{Service: "search"}
	set := testRuleset(2)
	set.Mode, set.Header = "header", "X-Group"
	if err := c.Load(set); err != nil {
		t.Fatal(err)
	}
	// A value naming a variant routes there directly.
	d, ok := c.Decide("canary")
	if !ok || d.Version != "canary" || d.Endpoint != "http://127.0.0.1:9102" {
		t.Errorf("header decision = %+v, %v", d, ok)
	}
	// Unknown values fall through to the sticky split, like the proxy.
	d, ok = c.Decide("someone-else")
	if !ok || (d.Version != "stable" && d.Version != "canary") {
		t.Errorf("fallthrough decision = %+v, %v", d, ok)
	}
}

func TestRefreshAndPolling(t *testing.T) {
	var mu sync.Mutex
	gen := int64(1)
	instances := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if r.URL.Path != "/search" {
			httpx.WriteProblem(w, httpx.Problem{Status: http.StatusNotFound, Code: "no_ruleset"})
			return
		}
		instances[r.Header.Get(InstanceHeader)]++
		httpx.WriteJSON(w, http.StatusOK, testRuleset(gen))
	}))
	defer ts.Close()

	c := &Client{BaseURL: ts.URL, Service: "search",
		InstanceID: "sdk-test", PollInterval: 5 * time.Millisecond}
	if err := c.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 1 {
		t.Errorf("generation = %d", c.Generation())
	}

	mu.Lock()
	gen = 2
	mu.Unlock()
	c.Start()
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for c.Generation() != 2 {
		if time.Now().After(deadline) {
			t.Fatal("poller never picked up generation 2")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	if instances["sdk-test"] < 2 {
		t.Errorf("instance header sent on %d polls", instances["sdk-test"])
	}
	mu.Unlock()
}

func TestRefreshSurfacesProblems(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteProblem(w, httpx.Problem{
			Status: http.StatusNotFound, Code: "no_ruleset", Detail: "nothing active",
		})
	}))
	defer ts.Close()
	c := &Client{BaseURL: ts.URL, Service: "search"}
	err := c.Refresh(context.Background())
	if err == nil {
		t.Fatal("missing ruleset refreshed")
	}
	if code := httpx.ProblemCode(err); code != "no_ruleset" {
		t.Errorf("problem code = %q: %v", code, err)
	}
	// A failed refresh never clobbers the last good snapshot.
	if err := c.Load(testRuleset(5)); err != nil {
		t.Fatal(err)
	}
	_ = c.Refresh(context.Background())
	if c.Generation() != 5 {
		t.Errorf("failed refresh clobbered the snapshot: generation = %d", c.Generation())
	}
}

// BenchmarkClientDecide measures the SDK's in-process routing decision:
// a sticky 90/10 ruleset evaluated for 4,096 distinct users, the same
// hashing the proxy uses for cohort assignment. It is the figure a
// flag-evaluated service pays per request instead of a proxy hop.
func BenchmarkClientDecide(b *testing.B) {
	c := &Client{Service: "search"}
	if err := c.Load(testRuleset(1)); err != nil {
		b.Fatal(err)
	}
	users := make([]string, 4096)
	for i := range users {
		users[i] = fmt.Sprintf("user-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Decide(users[i&(len(users)-1)]); !ok {
			b.Fatal("no decision")
		}
	}
}
