package flag

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	publicflag "bifrost/flag"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/target"
)

// flagE2EStrategy shifts all traffic from stable to canary across two
// phases. No proxy appears anywhere: routing is enacted purely as flag
// rulesets evaluated inside the SDK.
const flagE2EStrategy = `
name: flag-e2e
deployment:
  services:
    - service: search
      target: flag
      versions:
        - name: stable
          endpoint: 127.0.0.1:9101
        - name: canary
          endpoint: 127.0.0.1:9102
strategy:
  start: launch
  phases:
    - phase: launch
      duration: 150ms
      routes:
        - route:
            service: search
            weights:
              stable: 100
      on:
        success: shift
    - phase: shift
      duration: 30s
      routes:
        - route:
            service: search
            weights:
              canary: 100
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: search
            weights:
              canary: 100
`

// TestFlagTargetEndToEnd proves the flag enactment path: the engine runs a
// real compiled strategy against a registry holding only the flag target,
// the store serves rulesets over HTTP, and the SDK's client-side decisions
// shift versions as the strategy moves between phases.
func TestFlagTargetEndToEnd(t *testing.T) {
	store := NewStore()
	reg := target.NewRegistry()
	if err := reg.Register(target.KindFlag, store); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.WithTargets(reg))
	defer eng.Shutdown()
	ts := httptest.NewServer(store.Handler())
	defer ts.Close()

	s, err := dsl.Compile(flagE2EStrategy)
	if err != nil {
		t.Fatal(err)
	}
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatal(err)
	}

	sdk := &publicflag.Client{BaseURL: ts.URL, Service: "search", InstanceID: "sdk-e2e"}
	waitGeneration(t, sdk, 1)
	d, ok := sdk.Decide("alice")
	if !ok || d.Version != "stable" || d.Endpoint != "http://127.0.0.1:9101" {
		t.Fatalf("launch-phase decision = %+v, %v", d, ok)
	}

	// The launch phase times out after 150ms and the automaton moves to
	// shift: the next poll flips the SDK's routing, no restart, no proxy.
	waitGeneration(t, sdk, 2)
	d, ok = sdk.Decide("alice")
	if !ok || d.Version != "canary" || d.Endpoint != "http://127.0.0.1:9102" {
		t.Fatalf("shift-phase decision = %+v, %v", d, ok)
	}

	// The engine sees the SDK instance through the store's convergence
	// reports: one live replica, acked at the current generation.
	reports := store.Convergence(context.Background(), "flag-e2e")
	if len(reports) != 1 {
		t.Fatalf("convergence = %+v, want one service", reports)
	}
	c := reports[0]
	if c.Service != "search" || c.Generation != 2 || c.Replicas != 1 || c.Acked != 1 || !c.Converged {
		t.Errorf("convergence report = %+v", c)
	}

	// Run completion retires the ruleset — the SDK keeps serving its last
	// good snapshot, exactly like a poll outage.
	run.Abort()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := run.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if d, ok := sdk.Decide("alice"); !ok || d.Version != "canary" {
		t.Errorf("post-retire decision = %+v, %v", d, ok)
	}
}

// waitGeneration polls the SDK until it holds at least gen.
func waitGeneration(t *testing.T, sdk *publicflag.Client, gen int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		err := sdk.Refresh(ctx)
		cancel()
		if err == nil && sdk.Generation() >= gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("SDK never reached generation %d: last err %v, at %d",
				gen, err, sdk.Generation())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
