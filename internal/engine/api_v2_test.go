package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/httpx"
)

// multiPhaseStrategy builds canary → abtest → done with rollback reachable
// from both testing phases. Each phase would run for `phase` unless an
// operator intervenes, so tests can pause and promote deterministically
// mid-phase.
func multiPhaseStrategy(name string, phase time.Duration) *core.Strategy {
	mkChecks := func() []core.Check {
		return []core.Check{{
			Name:       "errors",
			Kind:       core.BasicCheck,
			Eval:       core.ConstEvaluator(true),
			Interval:   5 * time.Millisecond,
			Executions: 4,
			Weight:     1,
			Thresholds: []int{3},
			Outputs:    []int{-1, 1},
		}}
	}
	return &core.Strategy{
		Name:     name,
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "canary",
			Finals: []string{"done", "rollback"},
			States: []core.State{
				{
					ID: "canary", Duration: phase, Checks: mkChecks(),
					Thresholds:  []int{0},
					Transitions: []string{"rollback", "abtest"},
					Routing:     routeTo(95, 5),
				},
				{
					ID: "abtest", Duration: phase, Checks: mkChecks(),
					Thresholds:  []int{0},
					Transitions: []string{"rollback", "done"},
					Routing:     routeTo(50, 50),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "rollback", Routing: routeTo(100, 0)},
			},
		},
	}
}

// v2Fixture serves the API over a compile shim that treats the request YAML
// as the strategy name: names starting with "!" fail compilation, names
// containing "quick" build a fast-finishing canary, anything else a slow
// multi-phase strategy an operator must drive.
func v2Fixture(t *testing.T) (*Engine, *httptest.Server, *Client) {
	t.Helper()
	eng := New()
	t.Cleanup(eng.Shutdown)
	compile := func(src string) (*core.Strategy, error) {
		switch {
		case src == "" || strings.HasPrefix(src, "!"):
			return nil, errors.New("bad strategy source")
		case strings.Contains(src, "quick"):
			s := canaryStrategy(core.ConstEvaluator(true), 2*time.Millisecond, 4)
			s.Name = src
			return s, nil
		default:
			return multiPhaseStrategy(src, 30*time.Second), nil
		}
	}
	ts := httptest.NewServer(NewAPI(eng, compile).Handler())
	t.Cleanup(ts.Close)
	return eng, ts, &Client{BaseURL: ts.URL}
}

// awaitEvent drains ch until pred matches, failing the test on timeout or a
// closed stream.
func awaitEvent(t *testing.T, ch <-chan Event, what string, pred func(Event) bool) Event {
	t.Helper()
	deadline := time.After(15 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event stream closed while waiting for %s", what)
			}
			if pred(ev) {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func wantProblem(t *testing.T, err error, status int, code string) {
	t.Helper()
	var p *httpx.Problem
	if !errors.As(err, &p) {
		t.Fatalf("err = %v (%T), want *httpx.Problem", err, err)
	}
	if p.Status != status || p.Code != code {
		t.Fatalf("problem = %d %q (%s), want %d %q", p.Status, p.Code, p.Detail, status, code)
	}
}

func TestAPIDryRunValidatesWithoutEnacting(t *testing.T) {
	eng, _, c := v2Fixture(t)
	res, err := c.DryRun(context.Background(), "dry-check")
	if err != nil {
		t.Fatalf("DryRun: %v", err)
	}
	if !res.Valid || res.Strategy != "dry-check" {
		t.Errorf("dry-run = %+v", res)
	}
	if res.Analysis == nil || res.Analysis.MaxDuration <= 0 {
		t.Errorf("analysis = %+v, want rollout bounds", res.Analysis)
	}
	if len(res.Analysis.Unreachable) != 0 || len(res.Analysis.Trapped) != 0 {
		t.Errorf("lints = %+v", res.Analysis)
	}
	if runs := eng.Runs(); len(runs) != 0 {
		t.Errorf("dry-run enacted %d runs", len(runs))
	}
}

func TestAPIDryRunCompileErrorIsProblemJSON(t *testing.T) {
	_, ts, c := v2Fixture(t)

	// Typed client-side error.
	_, err := c.DryRun(context.Background(), "!broken")
	wantProblem(t, err, http.StatusUnprocessableEntity, CodeCompileFailed)

	// And on the wire it is an RFC 9457 problem document.
	resp, err := http.Post(ts.URL+"/api/v2/runs?dry-run=true", "application/json",
		strings.NewReader(`{"yaml":"!broken"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != httpx.ProblemContentType {
		t.Errorf("content type = %q, want %q", ct, httpx.ProblemContentType)
	}
	var p httpx.Problem
	if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Code != CodeCompileFailed || p.Detail == "" {
		t.Errorf("problem = %+v", p)
	}
}

func TestAPIPauseResumePromoteRollbackRoundTrips(t *testing.T) {
	eng, _, c := v2Fixture(t)
	ctx := context.Background()

	// Controls on unknown runs are typed 404s.
	_, err := c.Pause(ctx, "ghost")
	wantProblem(t, err, http.StatusNotFound, CodeNotFound)
	_, err = c.Resume(ctx, "ghost", 0)
	wantProblem(t, err, http.StatusNotFound, CodeNotFound)
	_, err = c.Promote(ctx, "ghost", "")
	wantProblem(t, err, http.StatusNotFound, CodeNotFound)

	if _, err := c.Schedule(ctx, "ops"); err != nil {
		t.Fatalf("Schedule: %v", err)
	}

	// Resume before any pause → conflict.
	_, err = c.Resume(ctx, "ops", 0)
	wantProblem(t, err, http.StatusConflict, CodeNotPaused)

	gen, err := c.Pause(ctx, "ops")
	if err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if gen != 1 {
		t.Errorf("pause generation = %d, want 1", gen)
	}
	st, err := c.Get(ctx, "ops")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != RunPaused || st.PauseGen != 1 {
		t.Errorf("status = %s gen %d, want paused gen 1", st.State, st.PauseGen)
	}

	// Double pause and stale resume are typed conflicts.
	_, err = c.Pause(ctx, "ops")
	wantProblem(t, err, http.StatusConflict, CodeAlreadyPaused)
	_, err = c.Resume(ctx, "ops", gen+7)
	wantProblem(t, err, http.StatusConflict, CodeStaleResume)

	// Promoting with an unknown target is rejected without moving the run.
	_, err = c.Promote(ctx, "ops", "nirvana")
	wantProblem(t, err, http.StatusUnprocessableEntity, CodeUnknownState)

	// A paused run accepts a manual gate decision directly.
	if _, err := c.Promote(ctx, "ops", ""); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	run, _ := eng.Run("ops")
	waitFor(t, func() bool { return run.Status().Current == "abtest" })

	// Default rollback target is the failure path of the current state.
	if _, err := c.Rollback(ctx, "ops", ""); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	final := waitDone(t, run)
	if final.State != RunCompleted {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}
	if len(final.Path) != 2 ||
		final.Path[0].To != "abtest" || final.Path[0].Cause != "promote" ||
		final.Path[1].To != "rollback" || final.Path[1].Cause != "rollback" {
		t.Errorf("path = %+v", final.Path)
	}

	// Controls on a finished run → conflict.
	_, err = c.Pause(ctx, "ops")
	wantProblem(t, err, http.StatusConflict, CodeRunFinished)
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestAPIRunEventsHistory(t *testing.T) {
	eng, _, c := v2Fixture(t)
	ctx := context.Background()

	_, err := c.RunEvents(ctx, "ghost", 10)
	wantProblem(t, err, http.StatusNotFound, CodeNotFound)

	for _, name := range []string{"quick-a", "quick-b"} {
		if _, err := c.Schedule(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range eng.Runs() {
		waitDone(t, r)
	}
	events, err := c.RunEvents(ctx, "quick-a", 0)
	if err != nil {
		t.Fatalf("RunEvents: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events for quick-a")
	}
	for _, ev := range events {
		if ev.Strategy != "quick-a" {
			t.Errorf("event for %q leaked into quick-a history", ev.Strategy)
		}
	}
	if events[len(events)-1].Type != EventCompleted {
		t.Errorf("last event = %s, want completed", events[len(events)-1].Type)
	}
}

func TestAPISSEStreamDeliversWithoutPolling(t *testing.T) {
	_, _, c := v2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Subscribe first; every event of the run scheduled afterwards must be
	// pushed to us — the test never calls Get or List.
	events, stop, err := c.Watch(ctx, "quick-sse", 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer stop()

	if _, err := c.Schedule(ctx, "quick-sse"); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, events, "state_entered", func(ev Event) bool {
		return ev.Type == EventStateEntered && ev.State == "canary"
	})
	awaitEvent(t, events, "transition", func(ev Event) bool {
		return ev.Type == EventTransition && ev.Detail == "done"
	})
	awaitEvent(t, events, "completed", func(ev Event) bool {
		return ev.Type == EventCompleted
	})
}

func TestAPISSEStreamReplaysHistory(t *testing.T) {
	eng, _, c := v2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if _, err := c.Schedule(ctx, "quick-replay"); err != nil {
		t.Fatal(err)
	}
	run, _ := eng.Run("quick-replay")
	waitDone(t, run)

	// The run is long finished; a late joiner with replay still sees its
	// full history.
	events, stop, err := c.Watch(ctx, "quick-replay", 256)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer stop()
	awaitEvent(t, events, "replayed completion", func(ev Event) bool {
		return ev.Type == EventCompleted && ev.Strategy == "quick-replay"
	})
}

// TestAPIV2EndToEnd is the acceptance scenario: a multi-phase strategy
// driven entirely over HTTP through the v2 API — dry-run first, then the
// real schedule, a mid-phase pause, a generation-checked resume, and manual
// promotions past both gates — with every lifecycle step observed on the
// SSE stream via engine.Client, never by polling.
func TestAPIV2EndToEnd(t *testing.T) {
	eng, _, c := v2Fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// 1. Dry-run: validate + analyze without enacting.
	dry, err := c.DryRun(ctx, "e2e")
	if err != nil {
		t.Fatalf("DryRun: %v", err)
	}
	if !dry.Valid || dry.Analysis == nil || dry.Analysis.MaxDuration <= 0 {
		t.Fatalf("dry-run = %+v", dry)
	}
	if len(eng.Runs()) != 0 {
		t.Fatal("dry-run enacted a strategy")
	}

	// 2. Open the event stream before scheduling.
	events, stop, err := c.Watch(ctx, "e2e", 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer stop()

	// 3. Schedule for real: the run enters its first phase.
	if _, err := c.Schedule(ctx, "e2e"); err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	awaitEvent(t, events, "canary entered", func(ev Event) bool {
		return ev.Type == EventStateEntered && ev.State == "canary"
	})

	// 4. Pause mid-phase; the pause is announced on the stream.
	gen, err := c.Pause(ctx, "e2e")
	if err != nil {
		t.Fatalf("Pause: %v", err)
	}
	awaitEvent(t, events, "paused", func(ev Event) bool {
		return ev.Type == EventPaused && ev.State == "canary"
	})
	if st, err := c.Get(ctx, "e2e"); err != nil || st.State != RunPaused {
		t.Fatalf("status after pause = %+v (%v)", st, err)
	}

	// 5. A stale generation cannot resume; the right one can, and the
	// canary phase restarts from scratch.
	_, err = c.Resume(ctx, "e2e", gen+1)
	wantProblem(t, err, http.StatusConflict, CodeStaleResume)
	if _, err := c.Resume(ctx, "e2e", gen); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	awaitEvent(t, events, "resumed", func(ev Event) bool {
		return ev.Type == EventResumed && ev.State == "canary"
	})
	awaitEvent(t, events, "canary re-entered", func(ev Event) bool {
		return ev.Type == EventStateEntered && ev.State == "canary"
	})

	// 6. Manually promote past the canary gate instead of waiting a phase.
	if _, err := c.Promote(ctx, "e2e", ""); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	awaitEvent(t, events, "gate decision", func(ev Event) bool {
		return ev.Type == EventGateDecision && ev.State == "canary"
	})
	awaitEvent(t, events, "canary→abtest transition", func(ev Event) bool {
		return ev.Type == EventTransition && ev.State == "canary" && ev.Detail == "abtest"
	})
	awaitEvent(t, events, "abtest entered", func(ev Event) bool {
		return ev.Type == EventStateEntered && ev.State == "abtest"
	})

	// 7. Promote straight to the final state; completion arrives on the
	// stream too.
	if _, err := c.Promote(ctx, "e2e", "done"); err != nil {
		t.Fatalf("Promote to done: %v", err)
	}
	awaitEvent(t, events, "abtest→done transition", func(ev Event) bool {
		return ev.Type == EventTransition && ev.State == "abtest" && ev.Detail == "done"
	})
	awaitEvent(t, events, "completed", func(ev Event) bool {
		return ev.Type == EventCompleted
	})

	run, _ := eng.Run("e2e")
	final := waitDone(t, run)
	if final.State != RunCompleted {
		t.Fatalf("final state = %s (%s)", final.State, final.Error)
	}
	if len(final.Path) != 2 ||
		final.Path[0].Cause != "promote" || final.Path[1].Cause != "promote" {
		t.Errorf("path = %+v, want two manual promotions", final.Path)
	}
	// The pause/resume cycle re-entered canary but must not book its
	// specified duration twice: exactly one canary + one abtest phase.
	if want := int64(60 * time.Second); final.PlannedNanos != want {
		t.Errorf("planned = %v, want %v (no double booking across pause/resume)",
			time.Duration(final.PlannedNanos), time.Duration(want))
	}
}
