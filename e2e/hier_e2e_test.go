// Tier-2 hierarchical-rollout end-to-end: a parent run fans a release out
// to three per-region child runs, sharded across a three-replica fleet by
// the cluster handler. A metrics stub fails the ap region's gate while eu
// and us pass, so the parent must promote on the 2/3 quorum while ap falls
// back alone. Mid-sub-rollout the replica owning the parent is killed -9:
// a survivor must adopt the parent, re-link the still-running children
// from its replayed journal, and apply the quorum decision exactly once —
// all observed live on an SSE watcher attached through a survivor.
//
// Run with the recovery CI job (no -short): go test ./e2e -race -run TestHier -v
package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/e2e/harness"
	"bifrost/internal/engine"
)

// hierYAML is the scheduled document: one parent ("hier") plus children
// hier-eu / hier-us / hier-ap created lazily when the parent enters the
// regions state. The per-region metric gate polls the stub provider every
// 500ms and needs every sample to validate; the exception check trips on
// the first poisoned sample, so the stubbed-out ap region falls back
// within a second while eu and us ride out the full schedule.
const hierYAML = `
name: hier
deployment:
  services:
    - service: shop
      target: flag
      versions:
        - name: stable
          endpoint: shop-stable.${region}.internal:9001
        - name: canary
          endpoint: shop-canary.${region}.internal:9002
providers:
  prometheus: %s
strategy:
  phases:
    - phase: regions
      rollouts:
        regions: [eu, us, ap]
        quorum: 2
        onChildFail: fallback
        strategy:
          phases:
            - phase: canary
              routes:
                - route:
                    service: shop
                    weights: {stable: 90, canary: 10}
              checks:
                - metric:
                    name: errors
                    provider: prometheus
                    query: request_errors{region="${region}"}
                    intervalTime: 500ms
                    intervalLimit: 16
                    threshold: 16
                    validator: "<1"
                - exception:
                    name: error_explosion
                    provider: prometheus
                    query: request_errors{region="${region}"}
                    intervalTime: 500ms
                    intervalLimit: 32
                    validator: "<50"
                    fallback: fallback
              on:
                success: full
                failure: fallback
            - phase: full
              routes:
                - route:
                    service: shop
                    weights: {canary: 100}
            - phase: fallback
              routes:
                - route:
                    service: shop
                    weights: {stable: 100}
      on:
        success: done
        failure: holdback
    - phase: done
    - phase: holdback
`

func TestHierParentKillQuorumSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e; skipped in -short")
	}

	// Metrics stub speaking the provider's batch protocol: the ap region
	// reports a hard failure signal, every other region is clean.
	provider := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var exprs []string
		if err := json.NewDecoder(r.Body).Decode(&exprs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		results := make([]string, len(exprs))
		for i, expr := range exprs {
			v := 0
			if strings.Contains(expr, `region="ap"`) {
				v = 100
			}
			results[i] = fmt.Sprintf(`{"value":%d}`, v)
		}
		fmt.Fprintf(w, `{"status":"success","data":[%s]}`, strings.Join(results, ","))
	}))
	defer provider.Close()

	fleet := harness.StartFleet(t, harness.Options{Replicas: 3, LeaseTTL: leaseTTL})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	client := fleet.Client("r0")

	sts, err := client.ScheduleAll(ctx, fmt.Sprintf(hierYAML, provider.URL))
	if err != nil {
		t.Fatalf("ScheduleAll: %v", err)
	}
	if len(sts) != 1 || sts[0].Strategy != "hier" {
		t.Fatalf("scheduled %v, want exactly the parent run hier", sts)
	}

	// The parent enters its sub-rollout state and schedules the children
	// back through the cluster, which shards them across the fleet. Wait
	// until the region tree is live: eu and us mid-canary (ap may already
	// have tripped its exception gate and fallen back — that is the point).
	children := []string{"hier-eu", "hier-us", "hier-ap"}
	harness.Eventually(t, 20*time.Second, "parent in regions, region tree live", func() bool {
		st, err := client.Get(ctx, "hier")
		if err != nil || st.Current != "regions" || st.State != engine.RunRunning {
			return false
		}
		if len(st.Children) != 3 {
			return false
		}
		for _, c := range []string{"hier-eu", "hier-us"} {
			cst, err := client.Get(ctx, c)
			if err != nil || cst.State != engine.RunRunning {
				return false
			}
		}
		_, err = client.Get(ctx, "hier-ap")
		return err == nil
	})

	owners := ownershipMap(t, fleet)
	victim, ok := owners["hier"]
	if !ok {
		t.Fatalf("no replica owns the parent: %v", owners)
	}
	survivor := ""
	for _, id := range fleet.IDs() {
		if id != victim {
			survivor = id
			break
		}
	}
	t.Logf("parent owned by %s (children: eu=%s us=%s ap=%s), watching via %s",
		victim, owners["hier-eu"], owners["hier-us"], owners["hier-ap"], survivor)

	// SSE watcher on the parent, attached through a survivor so it rides
	// the takeover with Last-Event-ID.
	type seen struct {
		mu          sync.Mutex
		recovered   bool
		completed   bool
		apFellBack  bool
		transitions int
	}
	var ws seen
	events, stopWatch, err := fleet.Client(survivor).Watch(ctx, "hier", 64)
	if err != nil {
		t.Fatalf("Watch hier via %s: %v", survivor, err)
	}
	defer stopWatch()
	go func() {
		for ev := range events {
			ws.mu.Lock()
			switch ev.Type {
			case engine.EventRecovered:
				ws.recovered = true
			case engine.EventCompleted:
				ws.completed = true
			case engine.EventChildTerminal:
				if ev.Region == "ap" && ev.Outcome == 0 {
					ws.apFellBack = true
				}
			case engine.EventTransition:
				if ev.State == "regions" {
					ws.transitions++
				}
			}
			ws.mu.Unlock()
		}
	}()

	// Kill -9 the parent's owner mid-sub-rollout: no shutdown hooks, the
	// lease stays on disk until it expires.
	killedAt := time.Now()
	fleet.Replica(victim).Kill9()
	client = fleet.Client(survivor)

	// A survivor adopts the parent within two lease TTLs (plus sweep
	// slack) and re-links the region tree from its replayed journal.
	adoptBy := killedAt.Add(2*leaseTTL + 3*time.Second)
	harness.Eventually(t, time.Until(adoptBy)+time.Second, "a survivor adopting the parent", func() bool {
		owners := ownershipMap(t, fleet)
		id, ok := owners["hier"]
		return ok && id != victim
	})
	st, err := client.Get(ctx, "hier")
	if err != nil {
		t.Fatalf("post-adopt parent status: %v", err)
	}
	if !st.Recovered {
		t.Errorf("adopted parent does not report Recovered")
	}
	if len(st.Children) != 3 {
		t.Errorf("adopted parent re-linked %d children, want 3: %+v", len(st.Children), st.Children)
	}

	// The rollout finishes on the surviving fleet: eu+us pass, the parent
	// promotes on the 2/3 quorum.
	harness.Eventually(t, 60*time.Second, "parent promoting on quorum", func() bool {
		st, err := client.Get(ctx, "hier")
		return err == nil && st.State == engine.RunCompleted
	})
	st, err = client.Get(ctx, "hier")
	if err != nil {
		t.Fatalf("final parent status: %v", err)
	}
	if st.Current != "done" {
		t.Fatalf("parent finished in %q, want done (path %+v)", st.Current, st.Path)
	}
	last := st.Path[len(st.Path)-1]
	if last.To != "done" || last.Cause != "quorum" {
		t.Errorf("final transition = %+v, want regions→done cause quorum", last)
	}

	// Blast radius: only ap fell back; eu and us promoted to full and were
	// never aborted by the sibling's failure or the takeover.
	harness.Eventually(t, 60*time.Second, "all children terminal", func() bool {
		for _, c := range children {
			cst, err := client.Get(ctx, c)
			if err != nil || cst.State == engine.RunRunning {
				return false
			}
		}
		return true
	})
	for _, c := range []string{"hier-eu", "hier-us"} {
		cst, err := client.Get(ctx, c)
		if err != nil {
			t.Fatalf("status of %s: %v", c, err)
		}
		if cst.State != engine.RunCompleted || cst.Current != "full" {
			t.Errorf("%s finished %s/%s, want completed/full", c, cst.State, cst.Current)
		}
	}
	ap, err := client.Get(ctx, "hier-ap")
	if err != nil {
		t.Fatalf("status of hier-ap: %v", err)
	}
	if ap.State != engine.RunCompleted || ap.Current != "fallback" {
		t.Errorf("hier-ap finished %s/%s, want completed/fallback (its own fallback, not an abort)",
			ap.State, ap.Current)
	}
	var passed, failed int
	for _, c := range st.Children {
		if c.Passed {
			passed++
		}
		if c.Failed {
			failed++
		}
	}
	if passed < 2 || failed != 1 {
		t.Errorf("parent region tree: %d passed / %d failed, want ≥2 / 1: %+v", passed, failed, st.Children)
	}

	// Fencing: across both parent lives the quorum decision was applied
	// exactly once — one transition out of the regions state in the full
	// journaled history.
	history, err := client.RunEvents(ctx, "hier", 0)
	if err != nil {
		t.Fatalf("RunEvents hier: %v", err)
	}
	transitions := 0
	for _, ev := range history {
		if ev.Type == engine.EventTransition && ev.State == "regions" {
			transitions++
		}
	}
	if transitions != 1 {
		t.Errorf("regions state transitioned %d times across takeover, want exactly 1", transitions)
	}

	// The SSE watcher rode through the kill and saw the story end to end:
	// the recovery marker, ap's lone fallback, and the quorum completion.
	harness.Eventually(t, 20*time.Second, "watcher observing recovery, ap fallback, completion", func() bool {
		ws.mu.Lock()
		defer ws.mu.Unlock()
		return ws.recovered && ws.completed && ws.apFellBack
	})
	ws.mu.Lock()
	if ws.transitions > 1 {
		t.Errorf("watcher saw the regions transition %d times (duplicate delivery)", ws.transitions)
	}
	ws.mu.Unlock()
}
