package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/dsl"
	"bifrost/internal/httpx"
	"bifrost/internal/lease"
)

// haMatrixYAML expands to four long-lived runs so ownership spread across
// replicas can be asserted while they are all still mid-phase.
const haMatrixYAML = `
name: ha-${region}-${cohort}
matrix:
  region: [eu, us]
  cohort: [free, paid]
deployment:
  services:
    - service: svc
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
        - name: canary
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: canary
      duration: 30m
      routes:
        - route:
            service: svc
            weights: {stable: 90, canary: 10}
      on:
        success: end
    - phase: end
      routes:
        - route:
            service: svc
            weights: {canary: 100}
`

// clusterFixture is one in-process HA replica: engine + membership wired
// the way cmd/bifrost-engine does it, sharing journal root and lease dir
// with its siblings.
type clusterFixture struct {
	id      string
	eng     *Engine
	cluster *Cluster
}

// newClusterFleet builds n replicas named r0..r(n-1) over one shared
// journal root and lease store, all on the manual clock. health reports
// peer liveness (nil: everyone healthy).
func newClusterFleet(t *testing.T, n int, clk clock.Clock,
	health func(id string) bool) []*clusterFixture {

	t.Helper()
	root := t.TempDir()
	leaseDir := t.TempDir()
	peers := make(map[string]string, n)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = string(rune('a' + i))
		peers[ids[i]] = "http://127.0.0.1:1" // placeholder; Handler tests override
	}
	fleet := make([]*clusterFixture, n)
	for i, id := range ids {
		leases, err := lease.Open(leaseDir, lease.WithClock(clk))
		if err != nil {
			t.Fatalf("lease.Open: %v", err)
		}
		c, err := NewCluster(ClusterOptions{
			Self: id, Peers: peers, Leases: leases,
			TTL: time.Minute, Compile: dsl.Compile, Clock: clk,
			Health: func(peer string) bool {
				if health == nil {
					return true
				}
				return health(peer)
			},
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		eng := New(WithClock(clk),
			WithJournalSet(openTestJournal(t, root)),
			WithFence(c.Token), WithEnactGate(c.Gate))
		c.mu.Lock()
		c.eng = eng // loops stay off: tests drive sweepOnce directly
		c.mu.Unlock()
		fleet[i] = &clusterFixture{id: id, eng: eng, cluster: c}
	}
	return fleet
}

func TestClusterEnactClaimsLeaseAndPeersRefuse(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC))
	fleet := newClusterFleet(t, 2, clk, nil)
	a, b := fleet[0], fleet[1]
	defer a.eng.Suspend()
	defer b.eng.Suspend()

	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := a.eng.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource on a: %v", err)
	}
	if tok := a.cluster.Token(strategy.Name); tok == 0 {
		t.Fatalf("replica a holds no fencing token after enacting")
	}
	if _, err := b.eng.EnactSource(strategy, holdStrategy); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("EnactSource on b: got %v, want ErrNotOwner", err)
	}
}

func TestClusterSweepAdoptsOnlyExpiredLeases(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC))
	// Replica a is "dead" from b's point of view throughout.
	fleet := newClusterFleet(t, 2, clk, func(id string) bool { return id != "a" })
	a, b := fleet[0], fleet[1]
	defer b.eng.Suspend()

	strategy, err := dsl.Compile(holdStrategy)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := a.eng.EnactSource(strategy, holdStrategy); err != nil {
		t.Fatalf("EnactSource: %v", err)
	}
	name := strategy.Name
	eventually(t, "run entering canary on a", func() bool {
		r, ok := a.eng.Run(name)
		return ok && r.Status().Current == "canary"
	})
	// Half a TTL of in-phase time before the crash: the lease (1m TTL,
	// never renewed here — no loops run in this test) is still live.
	// Wait for a heartbeat to advance the journal's crash-time estimate
	// so the downtime boundary is sharp.
	clk.Advance(30 * time.Second)
	eventually(t, "journal clock advanced on a", func() bool {
		a.eng.pubMu.Lock()
		defer a.eng.pubMu.Unlock()
		return !a.eng.mirror.LastTime.Before(clk.Now())
	})
	aTok := a.cluster.Token(name)
	a.eng.Suspend() // crash stand-in: lease stays on disk, unreleased

	// Lease still live: the sweep must not steal it even though a is
	// unreachable — only expiry proves the owner is gone.
	b.cluster.sweepOnce()
	if _, ok := b.eng.Run(name); ok {
		t.Fatalf("replica b adopted a run whose lease had not expired")
	}

	clk.Advance(2 * time.Minute) // past the 1m TTL
	b.cluster.sweepOnce()
	r, ok := b.eng.Run(name)
	if !ok {
		t.Fatalf("replica b did not adopt the expired run")
	}
	// The resumed loop re-enters the phase asynchronously; wait for the
	// re-entry before judging the elapsed accounting.
	eventually(t, "adopted run re-entering canary", func() bool {
		for _, ev := range b.eng.RunEvents(name, 0) {
			if ev.Type == EventRecovered {
				return true
			}
		}
		return false
	})
	waitReentries(t, b.eng, name, 2)
	st := r.Status()
	if st.Current != "canary" || st.State != RunRunning || !st.Recovered {
		t.Fatalf("adopted run status = %+v, want running in canary, recovered", st)
	}
	// Elapsed-in-state excludes the downtime: 30s lived, 2 minutes dead.
	// EnteredAt is backdated so elapsed reads ~30s, not 2m30s.
	elapsed := clk.Now().Sub(st.EnteredAt)
	if elapsed < 20*time.Second || elapsed > 70*time.Second {
		t.Fatalf("elapsed in state after adoption = %s, want ~30s (downtime excluded)", elapsed)
	}
	if bTok := b.cluster.Token(name); bTok <= aTok {
		t.Fatalf("adopting token %d does not fence previous owner's %d", bTok, aTok)
	}
}

func TestClusterRendezvousOrderAgreesAcrossReplicas(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 8, 7, 9, 0, 0, 0, time.UTC))
	fleet := newClusterFleet(t, 3, clk, nil)
	for _, name := range []string{"checkout-canary", "ha-eu-free", "x", ""} {
		want := fleet[0].cluster.preferred(name)
		if len(want) != 3 {
			t.Fatalf("preferred(%q) returned %d replicas, want 3", name, len(want))
		}
		for _, f := range fleet[1:] {
			if got := f.cluster.preferred(name); !reflect.DeepEqual(got, want) {
				t.Fatalf("replica %s preference for %q = %v, others say %v",
					f.id, name, got, want)
			}
		}
	}
	for i := range fleet {
		fleet[i].eng.Suspend()
	}
}

// TestClusterHandlerRoutesAndShards drives the HTTP layer end to end in
// process: two replicas behind httptest servers, a matrix schedule split
// across them by rendezvous preference, non-owned requests 307ing to the
// owner, and list fan-out merging the fleet view.
func TestClusterHandlerRoutesAndShards(t *testing.T) {
	root, leaseDir := t.TempDir(), t.TempDir()
	expand := func(src string) ([]ExpandedStrategy, error) {
		runs, err := dsl.CompileAll(src)
		if err != nil {
			return nil, err
		}
		out := make([]ExpandedStrategy, len(runs))
		for i, r := range runs {
			out[i] = ExpandedStrategy{Strategy: r.Strategy, Source: r.Source, Vars: r.Vars}
		}
		return out, nil
	}

	// Servers first (so peer URLs exist), handlers swapped in below.
	handlers := make([]http.Handler, 2)
	servers := make([]*httptest.Server, 2)
	for i := range servers {
		i := i
		servers[i] = httptest.NewServer(http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) { handlers[i].ServeHTTP(w, r) }))
		defer servers[i].Close()
	}
	peers := map[string]string{"a": servers[0].URL, "b": servers[1].URL}

	engines := make([]*Engine, 2)
	clusters := make([]*Cluster, 2)
	for i, id := range []string{"a", "b"} {
		leases, err := lease.Open(leaseDir)
		if err != nil {
			t.Fatalf("lease.Open: %v", err)
		}
		c, err := NewCluster(ClusterOptions{
			Self: id, Peers: peers, Leases: leases,
			TTL: time.Minute, Compile: dsl.Compile, Expand: expand,
		})
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		eng := New(WithJournalSet(openTestJournal(t, root)),
			WithFence(c.Token), WithEnactGate(c.Gate))
		defer eng.Suspend()
		c.mu.Lock()
		c.eng = eng
		c.mu.Unlock()
		handlers[i] = c.Handler(NewAPI(eng, dsl.Compile).WithExpander(expand).Handler())
		engines[i], clusters[i] = eng, c
	}

	// One POST to replica a schedules the whole matrix, sharded by
	// rendezvous preference.
	client := &Client{BaseURL: servers[0].URL}
	sts, err := client.ScheduleAll(context.Background(), haMatrixYAML)
	if err != nil {
		t.Fatalf("ScheduleAll: %v", err)
	}
	if len(sts) != 4 {
		t.Fatalf("scheduled %d runs, want 4", len(sts))
	}
	healthy := map[string]bool{"a": true, "b": true}
	for _, st := range sts {
		want := clusters[0].pickOwner(st.Strategy, healthy)
		var owner string
		for i, id := range []string{"a", "b"} {
			if _, ok := engines[i].Run(st.Strategy); ok {
				if owner != "" {
					t.Fatalf("run %s is live on both replicas", st.Strategy)
				}
				owner = id
			}
		}
		if owner != want {
			t.Fatalf("run %s landed on %q, rendezvous prefers %q", st.Strategy, owner, want)
		}
	}

	// A run-scoped GET against the wrong replica redirects to the owner;
	// the default client follows it transparently.
	name := sts[0].Strategy
	ownerIdx := 0
	if _, ok := engines[1].Run(name); ok {
		ownerIdx = 1
	}
	other := servers[1-ownerIdx]
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noFollow.Get(other.URL + "/api/v2/runs/" + name)
	if err != nil {
		t.Fatalf("GET via non-owner: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("non-owner GET status = %d, want 307", resp.StatusCode)
	}
	wantLoc := servers[ownerIdx].URL + "/api/v2/runs/" + name
	if loc := resp.Header.Get("Location"); loc != wantLoc {
		t.Fatalf("redirect Location = %q, want %q", loc, wantLoc)
	}
	st, err := (&Client{BaseURL: other.URL}).Get(context.Background(), name)
	if err != nil {
		t.Fatalf("Status via non-owner (follow redirect): %v", err)
	}
	if st.Strategy != name {
		t.Fatalf("redirected status is for %q, want %q", st.Strategy, name)
	}

	// List fan-out: either replica returns the merged fleet view, each
	// run exactly once.
	for i := range servers {
		listed, err := (&Client{BaseURL: servers[i].URL}).List(context.Background())
		if err != nil {
			t.Fatalf("List via %d: %v", i, err)
		}
		seen := map[string]int{}
		for _, st := range listed {
			seen[st.Strategy]++
		}
		if len(seen) != 4 {
			t.Fatalf("replica %d lists %d distinct runs, want 4: %v", i, len(seen), seen)
		}
		for name, n := range seen {
			if n != 1 {
				t.Fatalf("replica %d lists run %s %d times", i, name, n)
			}
		}
	}
}

// TestClusterPeerHopsReuseConnections: the health probe and the list
// fan-out read each peer response to EOF, so repeated scans reach a peer
// over one connection instead of dialing it every time. The list body is
// large enough to be sent chunked, which a JSON decoder alone leaves
// unfinished.
func TestClusterPeerHopsReuseConnections(t *testing.T) {
	runs := make([]Status, 100)
	for i := range runs {
		runs[i] = Status{Strategy: fmt.Sprintf("run-%03d", i), State: RunRunning, Current: "canary"}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /-/healthy", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /api/v2/runs", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, runs)
	})
	var conns atomic.Int64
	peer := httptest.NewUnstartedServer(mux)
	peer.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	peer.Start()
	defer peer.Close()

	leases, err := lease.Open(t.TempDir())
	if err != nil {
		t.Fatalf("lease.Open: %v", err)
	}
	c, err := NewCluster(ClusterOptions{
		Self:   "a",
		Peers:  map[string]string{"a": "http://127.0.0.1:1", "b": peer.URL},
		Leases: leases, TTL: time.Minute,
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	for i := 0; i < 20; i++ {
		if !c.probe("b") {
			t.Fatalf("probe %d: peer reported unhealthy", i)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 probes opened %d connections, want 1", n)
	}
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		c.handleList(rec, httptest.NewRequest(http.MethodGet, "/api/v2/runs", nil), nil)
		var got []Status
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got) != len(runs) {
			t.Fatalf("list %d: %d runs, %v", i, len(got), err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 probes and 20 list fan-outs opened %d connections, want 1", n)
	}
}
