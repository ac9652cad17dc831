package engine

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/metrics"
)

// verdictStrategyYAML builds a canary strategy whose gate phase holds a
// long explicit duration (10s) so that only an early conclusion can end
// it quickly.
func verdictStrategyYAML(name, checks string) string {
	return `
name: ` + name + `
deployment:
  services:
    - service: svc
      versions:
        - name: stable
          endpoint: 127.0.0.1:9001
        - name: candidate
          endpoint: 127.0.0.1:9002
strategy:
  phases:
    - phase: gate
      duration: 10s
      routes:
        - route:
            service: svc
            weights: {stable: 90, candidate: 10}
      checks:
` + checks + `
      on:
        success: done
        failure: rollback
    - phase: done
      routes:
        - route:
            service: svc
            weights: {stable: 0, candidate: 100}
    - phase: rollback
      routes:
        - route:
            service: svc
            weights: {stable: 100, candidate: 0}
`
}

// trafficFeeder appends candidate request/error counters to a store in
// the background, simulating live traffic at a fixed error ratio.
type trafficFeeder struct {
	store *metrics.Store
	stop  chan struct{}
	done  chan struct{}
}

func feedTraffic(store *metrics.Store, requestsPerTick, errorsPerTick float64) *trafficFeeder {
	f := &trafficFeeder{store: store, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		var requests, errors float64
		labels := metrics.Labels{"version": "candidate"}
		ticker := time.NewTicker(time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				requests += requestsPerTick
				errors += errorsPerTick
				now := time.Now()
				f.store.Append("requests_total", labels, requests, now)
				f.store.Append("request_errors_total", labels, errors, now)
			case <-f.stop:
				return
			}
		}
	}()
	return f
}

func (f *trafficFeeder) Stop() {
	close(f.stop)
	<-f.done
}

func compileWithStore(t *testing.T, store *metrics.Store, yaml string) *core.Strategy {
	t.Helper()
	c := &dsl.Compiler{Providers: map[string]dsl.Querier{
		"prom": metrics.StoreQuerier{Store: store},
	}}
	s, err := c.Compile(yaml)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return s
}

// TestSequentialGateConcludesBeforeTimer is the acceptance scenario: a
// strategy whose gate state would run 10 seconds transitions early because
// the sequential check accepts H0 (healthy candidate), observed end to end
// through run events.
func TestSequentialGateConcludesBeforeTimer(t *testing.T) {
	store := metrics.NewStore()
	s := compileWithStore(t, store, verdictStrategyYAML("seq-early-pass", `
        - sequential:
            name: ab-gate
            provider: prom
            errors: request_errors_total{version="candidate"}
            total: requests_total{version="candidate"}
            p0: 0.02
            p1: 0.20
            intervalTime: 20ms
            intervalLimit: 400
`))
	feeder := feedTraffic(store, 3, 0) // healthy: zero errors
	defer feeder.Stop()

	eng := New()
	defer eng.Shutdown()
	events, cancel := eng.Subscribe(1024)
	defer cancel()

	start := time.Now()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	elapsed := time.Since(start)

	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want gate→done", st.Path)
	}
	// The gate state's timer is 10s; the early conclusion must beat it
	// comfortably.
	if elapsed > 5*time.Second {
		t.Errorf("run took %v; sequential conclusion should interrupt the 10s state", elapsed)
	}

	var concluded, transitioned bool
	deadline := time.After(5 * time.Second)
	for !(concluded && transitioned) {
		select {
		case ev := <-events:
			switch ev.Type {
			case EventCheckConcluded:
				concluded = true
				if ev.Check != "ab-gate" || ev.Verdict == nil ||
					ev.Verdict.Decision != core.DecisionPass {
					t.Errorf("check_concluded event = %+v", ev)
				}
			case EventTransition:
				transitioned = true
				if ev.Detail != "done" {
					t.Errorf("transition to %q, want done", ev.Detail)
				}
				if !concluded {
					t.Error("transition published before check_concluded")
				}
			case EventCompleted:
				if !(concluded && transitioned) {
					t.Fatalf("completed without conclude+transition (concluded=%v transitioned=%v)",
						concluded, transitioned)
				}
			}
		case <-deadline:
			t.Fatalf("events missing: concluded=%v transitioned=%v", concluded, transitioned)
		}
	}
}

// TestEarlyConclusionRefreshesSiblingChecks guards the aggregation
// semantics when a sequential gate passes early: a sibling timed compare
// check whose schedule was cancelled mid-flight gets one final fresh
// execution, so its (passing) verdict — not a stale mid-schedule
// "continue" — enters the outcome, and the run promotes.
func TestEarlyConclusionRefreshesSiblingChecks(t *testing.T) {
	store := metrics.NewStore()
	s := compileWithStore(t, store, verdictStrategyYAML("seq-pass-with-sibling", `
        - sequential:
            name: ab-gate
            provider: prom
            errors: request_errors_total{version="candidate"}
            total: requests_total{version="candidate"}
            p0: 0.02
            p1: 0.20
            intervalTime: 20ms
            intervalLimit: 400
        - compare:
            name: latency-ab
            provider: prom
            baseline: upstream_ms{version="stable"}
            candidate: upstream_ms{version="candidate"}
            window: 10s
            minSamples: 5
            intervalTime: 3s
            intervalLimit: 100
`))
	// Latency for both arms is identical, so the final compare execution
	// passes — but its 3s timer means it has at most one (possibly
	// data-less) execution before the gate concludes.
	now := time.Now()
	for i := 0; i < 20; i++ {
		at := now.Add(time.Duration(i-20) * 100 * time.Millisecond)
		store.Append("upstream_ms", metrics.Labels{"version": "stable"}, 100+float64(i%7), at)
		store.Append("upstream_ms", metrics.Labels{"version": "candidate"}, 100+float64(i%7), at)
	}
	feeder := feedTraffic(store, 3, 0)
	defer feeder.Stop()

	eng := New()
	defer eng.Shutdown()
	start := time.Now()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want gate→done (sibling refreshed, not stale-failed)", st.Path)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run took %v, want early conclusion", elapsed)
	}
	for _, c := range st.Checks {
		if c.Name == "latency-ab" {
			if c.Verdict == nil || c.Verdict.Decision != core.DecisionPass {
				t.Errorf("compare verdict = %+v, want refreshed pass", c.Verdict)
			}
		}
	}
}

// seqAnalyzer is a deterministic fake: Continue for n calls, then the
// given decision (sticky, like a real SPRT).
type seqAnalyzer struct {
	mu        sync.Mutex
	calls     int
	after     int
	decision  core.Decision
	concluded bool
}

func (a *seqAnalyzer) Analyze(context.Context) (core.Verdict, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls++
	if a.concluded || a.calls > a.after {
		a.concluded = true
		return core.Verdict{Decision: a.decision}, nil
	}
	return core.Verdict{Decision: core.DecisionContinue}, nil
}

func (a *seqAnalyzer) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.calls, a.concluded = 0, false
}

// TestEarlyConclusionRefreshDeterministic pins the refresh semantics with
// fake analyzers: the compare sibling's only scheduled execution (at state
// entry) is inconclusive, the gate concludes pass shortly after, and the
// final-refresh execution turns the sibling's verdict into a pass — so
// the run promotes instead of failing on a stale "continue".
func TestEarlyConclusionRefreshDeterministic(t *testing.T) {
	gate := &seqAnalyzer{after: 2, decision: core.DecisionPass}
	sibling := &seqAnalyzer{after: 1, decision: core.DecisionPass} // Continue on call 1 only
	s := &core.Strategy{
		Name:     "refresh-deterministic",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "gate",
			Finals: []string{"done", "rollback"},
			States: []core.State{
				{
					ID:       "gate",
					Duration: 10 * time.Second,
					Checks: []core.Check{
						{
							Name: "gate", Kind: core.SequentialCheck, Analyze: gate,
							Interval: 2 * time.Millisecond, Executions: 1000,
						},
						{
							// One execution at state entry, then a 1h timer
							// that never fires again before the gate concludes.
							Name: "sibling", Kind: core.CompareCheck, Analyze: sibling,
							Interval: time.Hour, Executions: 2,
						},
					},
					Thresholds:  []int{1},
					Transitions: []string{"rollback", "done"},
					Routing:     routeTo(90, 10),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "rollback", Routing: routeTo(100, 0)},
			},
		},
	}
	eng := New()
	defer eng.Shutdown()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want gate→done via refreshed sibling verdict", st.Path)
	}
}

// TestSequentialGateFailsToFallback drives the gate with heavy errors: the
// SPRT accepts H1 and, because the check has a fallback, the run jumps
// straight to it with cause "sequential".
func TestSequentialGateFailsToFallback(t *testing.T) {
	store := metrics.NewStore()
	s := compileWithStore(t, store, verdictStrategyYAML("seq-early-fail", `
        - sequential:
            name: ab-gate
            provider: prom
            errors: request_errors_total{version="candidate"}
            total: requests_total{version="candidate"}
            p0: 0.02
            p1: 0.20
            intervalTime: 20ms
            intervalLimit: 400
            fallback: rollback
`))
	feeder := feedTraffic(store, 3, 1.2) // 40% errors: far above p1
	defer feeder.Stop()

	eng := New()
	defer eng.Shutdown()
	start := time.Now()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if time.Since(start) > 5*time.Second {
		t.Errorf("run took %v, want early conclusion", time.Since(start))
	}
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "rollback" || st.Path[0].Cause != "sequential" {
		t.Fatalf("path = %+v, want gate→rollback with cause sequential", st.Path)
	}
}

// TestBurnRateRollsBackUnderErrorLoad is the second acceptance scenario:
// injected error load trips the multi-window burn-rate guard and the run
// rolls back automatically, long before the state timer.
func TestBurnRateRollsBackUnderErrorLoad(t *testing.T) {
	store := metrics.NewStore()
	s := compileWithStore(t, store, verdictStrategyYAML("burnrate-rollback", `
        - burnrate:
            name: slo-guard
            provider: prom
            errors: request_errors_total{version="candidate"}
            total: requests_total{version="candidate"}
            slo: 99
            shortWindow: 100ms
            longWindow: 400ms
            factor: 5
            intervalTime: 20ms
            intervalLimit: 400
            fallback: rollback
`))
	feeder := feedTraffic(store, 4, 2) // 50% errors: burn ≈ 50× the budget
	defer feeder.Stop()

	eng := New()
	defer eng.Shutdown()
	events, cancel := eng.Subscribe(1024)
	defer cancel()

	start := time.Now()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if time.Since(start) > 5*time.Second {
		t.Errorf("rollback took %v, want early burn-rate interrupt", time.Since(start))
	}
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "rollback" || st.Path[0].Cause != "burnrate" {
		t.Fatalf("path = %+v, want gate→rollback with cause burnrate", st.Path)
	}

	var sawTrigger bool
	deadline := time.After(5 * time.Second)
	for !sawTrigger {
		select {
		case ev := <-events:
			if ev.Type == EventBurnRateTriggered {
				sawTrigger = true
				if ev.Check != "slo-guard" || ev.Verdict == nil ||
					ev.Verdict.Decision != core.DecisionFail {
					t.Errorf("burnrate_triggered event = %+v", ev)
				}
				if len(ev.Verdict.Windows) != 2 || ev.Verdict.Windows[0].Value < 5 {
					t.Errorf("verdict windows = %+v, want short window burning ≥ 5×",
						ev.Verdict.Windows)
				}
			}
		case <-deadline:
			t.Fatal("no burnrate_triggered event")
		}
	}
}

// TestErrNoDataPropagatesIntoVerdict runs a compare check against an empty
// store: every execution is inconclusive, the no-data error surfaces in
// the check's Verdict, and the default onInconclusive: fail sends the run
// to the failure path.
func TestErrNoDataPropagatesIntoVerdict(t *testing.T) {
	store := metrics.NewStore()
	yaml := strings.Replace(verdictStrategyYAML("nodata-compare", `
        - compare:
            name: latency-ab
            provider: prom
            baseline: response_ms{version="stable"}
            candidate: response_ms{version="candidate"}
            window: 1s
            intervalTime: 10ms
            intervalLimit: 3
`), "duration: 10s", "duration: 60ms", 1)
	s := compileWithStore(t, store, yaml)

	eng := New()
	defer eng.Shutdown()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "rollback" {
		t.Fatalf("path = %+v, want gate→rollback (inconclusive defaults to fail)", st.Path)
	}
	if len(st.Checks) != 1 {
		t.Fatalf("checks = %+v", st.Checks)
	}
	c := st.Checks[0]
	if c.Kind != "compare" || c.Inconclusive == 0 || c.Successes != 0 {
		t.Errorf("check status = %+v, want all executions inconclusive", c)
	}
	if c.Verdict == nil || c.Verdict.Decision != core.DecisionContinue {
		t.Fatalf("verdict = %+v, want continue", c.Verdict)
	}
	if !strings.Contains(c.Verdict.Err, "no data") {
		t.Errorf("verdict err = %q, want ErrNoData propagated", c.Verdict.Err)
	}
	if !strings.Contains(c.LastError, "no data") {
		t.Errorf("lastError = %q, want no-data note", c.LastError)
	}
}

// TestInconclusivePassPromotes flips onInconclusive to pass: the same
// no-data compare check now lets the canary proceed.
func TestInconclusivePassPromotes(t *testing.T) {
	store := metrics.NewStore()
	yaml := strings.Replace(verdictStrategyYAML("nodata-pass", `
        - compare:
            name: latency-ab
            provider: prom
            baseline: response_ms{version="stable"}
            candidate: response_ms{version="candidate"}
            window: 1s
            intervalTime: 10ms
            intervalLimit: 3
            onInconclusive: pass
`), "duration: 10s", "duration: 60ms", 1)
	s := compileWithStore(t, store, yaml)

	eng := New()
	defer eng.Shutdown()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want gate→done under onInconclusive: pass", st.Path)
	}
}

// TestSequentialAnalyzerResetsOnReentry pins the ResettableAnalyzer
// contract at the engine level: a state re-entered via a self-transition
// restarts the SPRT from zero evidence instead of reusing stale evidence.
func TestSequentialAnalyzerResetsOnReentry(t *testing.T) {
	var mu sync.Mutex
	resets := 0
	analyzer := &countingResettable{onReset: func() {
		mu.Lock()
		resets++
		mu.Unlock()
	}}
	s := &core.Strategy{
		Name:     "reset-on-reentry",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "probe",
			Finals: []string{"done"},
			States: []core.State{
				{
					ID: "probe",
					Checks: []core.Check{{
						Name:             "gate",
						Kind:             core.SequentialCheck,
						Analyze:          analyzer,
						Interval:         time.Millisecond,
						Executions:       2,
						InconclusivePass: false,
					}},
					Thresholds:  []int{0},
					Transitions: []string{"probe", "done"}, // ≤ 0 re-enters
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
			},
		},
	}
	eng := New()
	defer eng.Shutdown()
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	mu.Lock()
	defer mu.Unlock()
	// The analyzer passes from its third execution on: the first pass
	// through the state stays inconclusive (outcome 0 → re-enter), the
	// second passes. Each entry must have reset the analyzer.
	if resets < 2 {
		t.Errorf("resets = %d, want one per state entry (≥ 2)", resets)
	}
}

// TestCancelledAnalysisDiscarded pins the teardown semantics the live
// stack exposed: an analysis still in flight when the state ends (its
// context cancelled mid-query) must not overwrite the check's last real
// verdict with an inconclusive one.
func TestCancelledAnalysisDiscarded(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	r := &Run{engine: eng, strategy: &core.Strategy{Name: "cancel-test"}}

	blocked := core.AnalyzerFunc(func(ctx context.Context) (core.Verdict, error) {
		<-ctx.Done() // the query outlives the state
		return core.Verdict{Decision: core.DecisionContinue, Err: ctx.Err().Error()}, nil
	})
	check := &core.Check{Name: "g", Kind: core.CompareCheck, Analyze: blocked}
	cr := newCheckRunner(check, time.Time{}, 0)
	cr.lastVerdict = core.Verdict{Decision: core.DecisionPass}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	cr.runOnce(ctx, r, "")

	if evs := eng.RunEvents("cancel-test", 0); len(evs) != 0 {
		t.Errorf("cancelled execution published: %+v", evs)
	}
	if cr.lastVerdict.Decision != core.DecisionPass {
		t.Errorf("verdict overwritten by cancelled execution: %+v", cr.lastVerdict)
	}
	if out, err := cr.mappedOutcome(); err != nil || out != 1 {
		t.Errorf("mappedOutcome = %d, %v; want 1 (the real verdict)", out, err)
	}
}

// countingResettable is a test analyzer: inconclusive twice, then passing.
type countingResettable struct {
	mu      sync.Mutex
	calls   int
	onReset func()
}

func (c *countingResettable) Analyze(context.Context) (core.Verdict, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls <= 2 {
		return core.Verdict{Decision: core.DecisionContinue}, nil
	}
	return core.Verdict{Decision: core.DecisionPass}, nil
}

func (c *countingResettable) Reset() {
	c.onReset()
}
