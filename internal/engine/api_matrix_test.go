package engine

import (
	"context"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"bifrost/internal/dsl"
	"bifrost/internal/target"
)

// matrixYAML is a 2×2 template over the flag target: one POST to
// /api/v2/runs must schedule all four expansions.
const matrixYAML = `
name: canary-${region}-${cohort}
matrix:
  region: [eu, us]
  cohort: [free, paid]
deployment:
  services:
    - service: shop
      target: flag
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
strategy:
  phases:
    - phase: canary
      duration: 2ms
      routes:
        - route:
            service: shop
            weights:
              stable: 100
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: shop
            weights:
              stable: 100
`

func matrixFixture(t *testing.T) (*Engine, *Client) {
	t.Helper()
	reg := target.NewRegistry()
	if err := reg.Register(target.KindFlag, &recordingTarget{}); err != nil {
		t.Fatal(err)
	}
	eng := New(WithTargets(reg))
	t.Cleanup(eng.Shutdown)
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
	ts := httptest.NewServer(NewAPI(eng, dsl.Compile).WithExpander(expand).Handler())
	t.Cleanup(ts.Close)
	return eng, &Client{BaseURL: ts.URL}
}

func TestAPIScheduleMatrixTemplate(t *testing.T) {
	eng, c := matrixFixture(t)
	ctx := context.Background()

	sts, err := c.ScheduleAll(ctx, matrixYAML)
	if err != nil {
		t.Fatalf("ScheduleAll: %v", err)
	}
	if len(sts) != 4 {
		t.Fatalf("scheduled %d runs, want 4", len(sts))
	}
	var names []string
	for _, st := range sts {
		names = append(names, st.Strategy)
	}
	sort.Strings(names)
	want := []string{"canary-eu-free", "canary-eu-paid", "canary-us-free", "canary-us-paid"}
	for i, n := range names {
		if n != want[i] {
			t.Errorf("run names = %v, want %v", names, want)
			break
		}
	}

	// Every expansion is a first-class run: individually fetchable and in
	// the listing.
	for _, r := range eng.Runs() {
		waitDone(t, r)
	}
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 4 {
		t.Errorf("listed %d runs, want 4", len(list))
	}
	st, err := c.Get(ctx, "canary-us-paid")
	if err != nil {
		t.Fatalf("Get expanded run: %v", err)
	}
	if st.State != RunCompleted {
		t.Errorf("expanded run state = %s", st.State)
	}
}

func TestAPIScheduleSingleStillReturnsObject(t *testing.T) {
	_, c := matrixFixture(t)
	// A non-template source keeps the single-object wire shape: the v2
	// single-run client path is unchanged.
	single := strings.Replace(matrixYAML, "name: canary-${region}-${cohort}", "name: solo", 1)
	single = strings.Replace(single, "matrix:\n  region: [eu, us]\n  cohort: [free, paid]\n", "", 1)
	st, err := c.Schedule(context.Background(), single)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	if st.Strategy != "solo" {
		t.Errorf("strategy = %q", st.Strategy)
	}
}

func TestAPIScheduleTemplateRejectedBySingleClient(t *testing.T) {
	_, c := matrixFixture(t)
	if _, err := c.Schedule(context.Background(), matrixYAML); err == nil {
		t.Fatal("single-run Schedule accepted a 4-run template")
	}
}

func TestAPIDryRunMatrixTemplate(t *testing.T) {
	eng, c := matrixFixture(t)
	reports, err := c.DryRunAll(context.Background(), matrixYAML)
	if err != nil {
		t.Fatalf("DryRunAll: %v", err)
	}
	if len(reports) != 4 {
		t.Fatalf("dry-run reports = %d, want 4", len(reports))
	}
	for _, r := range reports {
		if !strings.HasPrefix(r.Strategy, "canary-") {
			t.Errorf("report strategy = %q", r.Strategy)
		}
	}
	if len(eng.Runs()) != 0 {
		t.Error("dry-run enacted runs")
	}
}

func TestAPIScheduleTemplateIsAtomic(t *testing.T) {
	eng, c := matrixFixture(t)
	ctx := context.Background()

	// Occupy one of the four expanded names: the template POST must fail
	// as a whole and unwind the siblings it had already scheduled.
	blocker := strings.Replace(matrixYAML, "name: canary-${region}-${cohort}",
		"name: canary-us-paid", 1)
	blocker = strings.Replace(blocker, "matrix:\n  region: [eu, us]\n  cohort: [free, paid]\n", "", 1)
	blocker = strings.Replace(blocker, "duration: 2ms", "duration: 10s", 1)
	if _, err := c.Schedule(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	// The blocker's first state_entered is published by its run loop, after
	// Schedule returns: wait for it, so the check below reads its state.
	eventually(t, "blocker running", func() bool {
		r, ok := eng.Run("canary-us-paid")
		return ok && r.Status().State == RunRunning
	})

	_, err := c.ScheduleAll(ctx, matrixYAML)
	if err == nil {
		t.Fatal("conflicting template scheduled")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Errorf("error does not mention sibling unwind: %v", err)
	}
	// Only the pre-existing run survives; the engine is back where the
	// failed POST found it (terminal sibling runs are removed).
	alive := 0
	for _, r := range eng.Runs() {
		st := r.Status()
		if st.Strategy == "canary-us-paid" && st.State == RunRunning {
			alive++
			continue
		}
		t.Errorf("leftover run %q in state %s after unwind", st.Strategy, st.State)
	}
	if alive != 1 {
		t.Errorf("blocker run missing after unwind")
	}
}
