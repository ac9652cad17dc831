package engine

import (
	"context"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
)

// heldCall is one execution of a gatedEvaluator: when it started on the
// engine's clock, and the channel that lets it return.
type heldCall struct {
	at      time.Time
	release chan struct{}
}

// gatedEvaluator is a basic check whose every execution blocks until the
// test releases it (then succeeds) or its context is cancelled (then
// returns the context's error, as a real provider query does).
type gatedEvaluator struct {
	clk   clock.Clock
	calls chan heldCall
}

func newGatedEvaluator(clk clock.Clock) *gatedEvaluator {
	return &gatedEvaluator{clk: clk, calls: make(chan heldCall, 16)}
}

func (g *gatedEvaluator) Evaluate(ctx context.Context) (bool, error) {
	c := heldCall{at: g.clk.Now(), release: make(chan struct{})}
	g.calls <- c
	select {
	case <-c.release:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// next waits for the evaluator's next execution to start.
func (g *gatedEvaluator) next(t *testing.T) heldCall {
	t.Helper()
	select {
	case c := <-g.calls:
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the next check execution")
		return heldCall{}
	}
}

// none asserts that no execution starts for a while.
func (g *gatedEvaluator) none(t *testing.T, what string) {
	t.Helper()
	select {
	case c := <-g.calls:
		t.Fatalf("%s: an execution started at %v", what, c.at)
	case <-time.After(20 * time.Millisecond):
	}
}

// advance lets the engine's goroutines reach their next wait, then moves
// the clock, so that the schedule's rules and not a missed tick decide the
// tests below.
func advance(clk *clock.Manual, d time.Duration) {
	time.Sleep(10 * time.Millisecond)
	clk.Advance(d)
}

// timedCanary is a canary of the given duration whose one basic check must
// pass all n of its executions, every interval, for the success path.
func timedCanary(eval core.Evaluator, duration, interval time.Duration, n int) *core.Strategy {
	s := canaryStrategy(eval, interval, n)
	s.Automaton.States[0].Duration = duration
	return s
}

func checkExecutedEvents(eng *Engine, run, check string) (total, passed int) {
	for _, ev := range eng.RunEvents(run, 0) {
		if ev.Type == EventCheckExecuted && ev.Check == check {
			total++
			passed += ev.Outcome
		}
	}
	return total, passed
}

// TestScheduleInFlightAtTimerCounts: a query still in flight when the
// state's timer fires belongs to the state. The state waits for it, so n
// of n executions succeed and the run takes the success transition.
func TestScheduleInFlightAtTimerCounts(t *testing.T) {
	t0 := time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC)
	clk := clock.NewManual(t0)
	eng := New(WithClock(clk))
	defer eng.Shutdown()
	const interval, n = 100 * time.Millisecond, 3
	ev := newGatedEvaluator(clk)
	run, err := eng.Enact(timedCanary(ev, n*interval, interval, n))
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}

	for k := 0; k < n-1; k++ {
		c := ev.next(t)
		if want := t0.Add(time.Duration(k) * interval); !c.at.Equal(want) {
			t.Fatalf("execution %d started at %v, want %v", k+1, c.at, want)
		}
		close(c.release)
		advance(clk, interval)
	}
	last := ev.next(t)
	advance(clk, interval) // the state's timer fires with the last query in flight
	time.Sleep(20 * time.Millisecond)
	if run.Done() {
		t.Fatalf("state ended with its last execution in flight: %+v", run.Status())
	}
	close(last.release)

	st := waitDone(t, run)
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want canary→done", st.Path)
	}
	if c := st.Checks[0]; c.Executions != n || c.Successes != n || c.Failures != 0 {
		t.Fatalf("check status = %+v, want %d of %d successes", c, n, n)
	}
	if total, passed := checkExecutedEvents(eng, run.strategy.Name, "errors"); total != n || passed != n {
		t.Fatalf("check_executed events: %d, %d passed; want %d of %d", total, passed, n, n)
	}
}

// TestScheduleSlowQueryKeepsSpacing: a query slower than Interval delays
// the next execution instead of dropping it, the next one after that is
// not run early to catch up, and the state ends only after the last of
// exactly n executions.
func TestScheduleSlowQueryKeepsSpacing(t *testing.T) {
	t0 := time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC)
	clk := clock.NewManual(t0)
	eng := New(WithClock(clk))
	defer eng.Shutdown()
	const interval, n = 100 * time.Millisecond, 3
	ev := newGatedEvaluator(clk)
	run, err := eng.Enact(timedCanary(ev, n*interval, interval, n))
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}

	first := ev.next(t) // t0, held for 1.5 intervals
	advance(clk, interval*3/2)
	ev.none(t, "while the first execution is in flight")
	close(first.release)

	second := ev.next(t) // starts as soon as the slow first one ends
	if want := t0.Add(interval * 3 / 2); !second.at.Equal(want) {
		t.Fatalf("second execution started at %v, want %v", second.at, want)
	}
	close(second.release)
	advance(clk, interval/2)
	ev.none(t, "less than Interval after the second execution started")
	advance(clk, interval/2)

	third := ev.next(t)
	if want := second.at.Add(interval); !third.at.Equal(want) {
		t.Fatalf("third execution started at %v, want %v (Interval after the second)", third.at, want)
	}
	advance(clk, interval) // past the state's timer, the third still in flight
	time.Sleep(20 * time.Millisecond)
	if run.Done() {
		t.Fatalf("state ended before its last execution finished: %+v", run.Status())
	}
	close(third.release)

	st := waitDone(t, run)
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want canary→done", st.Path)
	}
	if end := st.Path[0].At; end.Before(third.at.Add(interval)) {
		t.Fatalf("state ended at %v, before its last execution did", end)
	}
	if c := st.Checks[0]; c.Executions != n || c.Successes != n {
		t.Fatalf("check status = %+v, want exactly %d successful executions", c, n)
	}
	ev.none(t, "after the state ended")
}

// TestScheduleEarlyConclusionDiscardsCancelledQuery: when a sequential
// gate ends the state early, a basic query still in flight is cancelled
// and discarded, not counted as a failure.
func TestScheduleEarlyConclusionDiscardsCancelledQuery(t *testing.T) {
	t0 := time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC)
	clk := clock.NewManual(t0)
	eng := New(WithClock(clk))
	defer eng.Shutdown()
	const interval = 100 * time.Millisecond

	basic := newGatedEvaluator(clk)
	basicHeld := make(chan struct{})
	gateRuns := 0
	gate := core.AnalyzerFunc(func(context.Context) (core.Verdict, error) {
		gateRuns++
		if gateRuns == 1 {
			return core.Verdict{Decision: core.DecisionContinue}, nil
		}
		<-basicHeld // conclude only once the basic query is in flight
		return core.Verdict{Decision: core.DecisionPass}, nil
	})
	s := &core.Strategy{
		Name:     "gate-early",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "gate",
			Finals: []string{"done", "rollback"},
			States: []core.State{
				{
					ID:       "gate",
					Duration: 10 * time.Second,
					Checks: []core.Check{
						{Name: "errors", Kind: core.BasicCheck, Eval: basic,
							Interval: interval, Executions: 100},
						{Name: "ab-gate", Kind: core.SequentialCheck, Analyze: gate,
							Interval: interval, Executions: 100},
					},
					Thresholds:  []int{0},
					Transitions: []string{"rollback", "done"},
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "rollback", Routing: routeTo(100, 0)},
			},
		},
	}
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	close(basic.next(t).release)
	advance(clk, interval)
	basic.next(t) // held: only the state's end can cancel it
	close(basicHeld)

	st := waitDone(t, run)
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want gate→done", st.Path)
	}
	for _, c := range st.Checks {
		if c.Name == "errors" && (c.Executions != 1 || c.Failures != 0) {
			t.Fatalf("basic check = %+v, want the cancelled query discarded", c)
		}
	}
	if total, passed := checkExecutedEvents(eng, s.Name, "errors"); total != 1 || passed != 1 {
		t.Fatalf("check_executed events for the basic check: %d, %d passed; want 1 of 1", total, passed)
	}
}

// TestStatusChecksShowProgressMidPhase: while a state runs, Status.Checks
// reports every execution already recorded, not only once the state ends;
// and a pause/resume re-entry restarts the counts from zero, as it
// restarts the check's runner.
func TestStatusChecksShowProgressMidPhase(t *testing.T) {
	const interval, n, released = 100 * time.Millisecond, 4, 2
	for _, tc := range []struct {
		name        string
		pauseResume bool
		want        int
	}{
		{name: "mid-phase", want: released},
		{name: "after a pause/resume re-entry", pauseResume: true, want: 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clk := clock.NewManual(time.Date(2026, 10, 1, 9, 0, 0, 0, time.UTC))
			eng := New(WithClock(clk))
			defer eng.Shutdown()
			ev := newGatedEvaluator(clk)
			run, err := eng.Enact(timedCanary(ev, n*interval, interval, n))
			if err != nil {
				t.Fatalf("Enact: %v", err)
			}
			for k := 0; k < released; k++ {
				close(ev.next(t).release)
				advance(clk, interval)
			}
			ev.next(t) // the next execution is held in flight
			if tc.pauseResume {
				eventually(t, "released executions recorded", func() bool {
					return checkCount(run.Status()) == released
				})
				gen, err := run.Pause()
				if err != nil {
					t.Fatalf("Pause: %v", err)
				}
				if err := run.Resume(gen); err != nil {
					t.Fatalf("Resume: %v", err)
				}
				ev.next(t) // the re-entry's first execution, held
			}
			eventually(t, "check progress in status", func() bool {
				return checkCount(run.Status()) == tc.want
			})
			st := run.Status()
			if st.Current != "canary" || st.State != RunRunning {
				t.Fatalf("status = %s in %q, want running in canary", st.State, st.Current)
			}
			c := st.Checks[0]
			if c.Name != "errors" || c.Kind != "basic" || c.Executions != tc.want ||
				c.Successes != tc.want || c.Failures != 0 {
				t.Fatalf("check status = %+v, want %d of %d executions successful", c, tc.want, tc.want)
			}
		})
	}
}

// checkCount is the executions of the status's only check, or -1 when
// Status.Checks does not hold exactly one entry.
func checkCount(st Status) int {
	if len(st.Checks) != 1 {
		return -1
	}
	return st.Checks[0].Executions
}
