package engine

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"bifrost/internal/dsl"
	"bifrost/internal/httpx"
	"bifrost/internal/proxy"
)

// replicaServer is one real proxy replica served over HTTP, restartable on
// its original address (the way a rescheduled container comes back).
type replicaServer struct {
	t    *testing.T
	addr string
	p    *proxy.Proxy
	srv  *httpx.Server
}

func startReplica(t *testing.T, addr string) *replicaServer {
	t.Helper()
	p, err := proxy.New("shop", proxy.Config{
		Service:    "shop",
		Generation: 0,
		Backends:   []proxy.Backend{{Version: "stable", URL: "http://127.0.0.1:9001", Weight: 1}},
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	srv, err := httpx.NewServer(addr, p)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv.Start()
	return &replicaServer{t: t, addr: srv.Addr(), p: p, srv: srv}
}

// kill stops the replica: admin API unreachable, all state lost. It drops
// every connection at once, as a killed process does, rather than shutting
// down gracefully. A graceful Shutdown waits out connections in the
// StateNew state for up to 5 s: the engine's HTTP transport dials one when
// two requests to a replica race, and the request it was dialed for is
// served by an idle connection freed meanwhile, so the new connection
// never carries a request.
func (rs *replicaServer) kill() {
	if err := rs.srv.Close(); err != nil {
		rs.t.Logf("replica close: %v", err)
	}
	rs.p.Close()
}

// restart brings a fresh, configless replica back on the same address.
func (rs *replicaServer) restart() {
	fresh := startReplica(rs.t, rs.addr)
	rs.p, rs.srv = fresh.p, fresh.srv
}

func (rs *replicaServer) generation() int64 { return rs.p.Config().Generation }

// TestFleetReplicaRestartEndToEnd is the issue's acceptance drill: a
// 3-replica run survives one replica being killed and restarted mid-phase.
// The killed replica makes the fleet degraded (observed as
// routing_degraded on the live SSE stream), the restarted one is
// reconverged by the anti-entropy reconciler without operator action
// (routing_converged on SSE, generation caught up), and the run completes.
func TestFleetReplicaRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet e2e runs in the recovery CI job (and full local test runs)")
	}

	replicas := []*replicaServer{
		startReplica(t, "127.0.0.1:0"),
		startReplica(t, "127.0.0.1:0"),
		startReplica(t, "127.0.0.1:0"),
	}
	defer func() {
		for _, rs := range replicas {
			rs.kill()
		}
	}()

	src := fmt.Sprintf(`
name: fleet-e2e
deployment:
  services:
    - service: shop
      proxies:
        - http://%s
        - http://%s
        - http://%s
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
        - name: canary
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: canary
      duration: 3s
      routes:
        - route:
            service: shop
            weights: {stable: 9, canary: 1}
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: shop
            weights: {canary: 100}
`, replicas[0].addr, replicas[1].addr, replicas[2].addr)

	// Quorum 2 of 3: losing one replica must neither fail a state entry
	// nor block the run's transitions while the replica is down.
	eng := New(WithConfigurator(NewFleetConfigurator(
		FleetQuorum(2),
		FleetRetry(RetryPolicy{
			PushTimeout: time.Second,
			MaxAttempts: 2,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
		}),
		FleetReconcileInterval(25*time.Millisecond),
	)))
	defer eng.Shutdown()

	api := httptest.NewServer(NewAPI(eng, dsl.Compile).Handler())
	defer api.Close()
	client := &Client{BaseURL: api.URL}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, stopWatch, err := client.Watch(ctx, "", 0)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer stopWatch()

	if _, err := client.Schedule(ctx, src); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	run, ok := eng.Run("fleet-e2e")
	if !ok {
		t.Fatal("run not registered")
	}

	// routing_applied means a quorum of replicas (2 of 3) acked the canary
	// phase's routing; the push to the third may still be in flight.
	applied := awaitEvent(t, events, "routing_applied", func(ev Event) bool {
		return ev.Type == EventRoutingApplied && ev.State == "canary"
	})
	canaryGen := applied.Generation
	if canaryGen <= 0 {
		t.Fatalf("routing_applied carries generation %d", canaryGen)
	}
	atGen := func() (n int) {
		for _, rs := range replicas {
			if rs.generation() >= canaryGen {
				n++
			}
		}
		return n
	}
	if n := atGen(); n < 2 {
		t.Fatalf("%d replicas at generation %d at routing_applied, want a quorum of 2", n, canaryGen)
	}
	// All three replicas then receive it.
	for deadline := time.Now().Add(5 * time.Second); atGen() < len(replicas); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d replicas reached generation %d", atGen(), len(replicas), canaryGen)
		}
	}

	// Kill one replica mid-phase: the reconciler notices the fleet is no
	// longer at full strength and degrades it on the event stream.
	replicas[1].kill()
	deg := awaitEvent(t, events, "routing_degraded", func(ev Event) bool {
		return ev.Type == EventRoutingDegraded && ev.Service == "shop"
	})
	if deg.Replicas != 3 || deg.Acked != 2 {
		t.Errorf("degraded event = %d/%d acked, want 2/3", deg.Acked, deg.Replicas)
	}

	// Restart it empty on the same address: anti-entropy re-pushes the
	// current generation and announces reconvergence — no operator action.
	replicas[1].restart()
	conv := awaitEvent(t, events, "routing_converged", func(ev Event) bool {
		return ev.Type == EventRoutingConverged && ev.Service == "shop"
	})
	if conv.Replicas != 3 || conv.Acked != 3 {
		t.Errorf("converged event = %d/%d acked, want 3/3", conv.Acked, conv.Replicas)
	}
	if g := replicas[1].generation(); g < canaryGen {
		t.Errorf("restarted replica generation = %d, want ≥ %d", g, canaryGen)
	}

	// Run status reflects the convergence (the v2 run resource carries it).
	st, err := client.Get(ctx, "fleet-e2e")
	if err != nil {
		t.Fatalf("get status: %v", err)
	}
	if len(st.Fleet) != 1 || !st.Fleet[0].Converged || st.Fleet[0].Acked != 3 {
		t.Errorf("status fleet = %+v, want shop converged 3/3", st.Fleet)
	}

	// The phase timer fires, the run rolls into its final state and
	// completes — the whole drill never needed a human.
	awaitEvent(t, events, "run completed", func(ev Event) bool {
		return ev.Type == EventCompleted && ev.Strategy == "fleet-e2e"
	})
	wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer wcancel()
	if err := run.Wait(wctx); err != nil {
		t.Fatal(err)
	}
	if st := run.Status(); st.State != RunCompleted {
		t.Fatalf("run state = %s (%s), want completed", st.State, st.Error)
	}

	// Every replica — including the restarted one — ends on the final
	// state's generation.
	final := replicas[0].generation()
	if final <= canaryGen {
		t.Fatalf("final generation %d not beyond canary generation %d", final, canaryGen)
	}
	for i, rs := range replicas {
		if g := rs.generation(); g != final {
			t.Errorf("replica %d generation = %d, want %d", i, g, final)
		}
	}
}
