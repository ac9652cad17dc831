package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/target"
)

// recordingConfigurator is a target capturing Apply calls for assertions.
type recordingConfigurator struct {
	mu    sync.Mutex
	calls []configCall
	fail  bool
}

type configCall struct {
	state      string
	service    string
	generation int64
	weights    map[string]float64
}

func (rc *recordingConfigurator) Apply(_ context.Context, _ *core.Strategy,
	state *core.State, r core.RoutingConfig, gen int64) error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.fail {
		return errors.New("configurator down")
	}
	w := make(map[string]float64, len(r.Weights))
	for k, v := range r.Weights {
		w[k] = v
	}
	rc.calls = append(rc.calls, configCall{
		state: state.ID, service: r.Service, generation: gen, weights: w,
	})
	return nil
}

func (rc *recordingConfigurator) Convergence(context.Context, string) []target.Convergence {
	return nil
}

func (rc *recordingConfigurator) Retire(string) {}

func (rc *recordingConfigurator) snapshot() []configCall {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]configCall(nil), rc.calls...)
}

// twoVersionServices is the minimal B for test strategies.
func twoVersionServices() []core.Service {
	return []core.Service{{
		Name: "svc",
		Versions: []core.Version{
			{Name: "stable", Endpoint: "127.0.0.1:1001"},
			{Name: "canary", Endpoint: "127.0.0.1:1002"},
		},
	}}
}

func routeTo(stablePct, canaryPct float64) []core.RoutingConfig {
	return []core.RoutingConfig{{
		Service: "svc",
		Weights: map[string]float64{"stable": stablePct, "canary": canaryPct},
	}}
}

// canaryStrategy: start → (checks pass: done | fail: rollback).
func canaryStrategy(eval core.Evaluator, interval time.Duration, executions int) *core.Strategy {
	return &core.Strategy{
		Name:     "test-canary",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "canary",
			Finals: []string{"done", "rollback"},
			States: []core.State{
				{
					ID: "canary",
					Checks: []core.Check{{
						Name:       "errors",
						Kind:       core.BasicCheck,
						Eval:       eval,
						Interval:   interval,
						Executions: executions,
						Weight:     1,
						Thresholds: []int{executions - 1},
						Outputs:    []int{-1, 1},
					}},
					Thresholds:  []int{0},
					Transitions: []string{"rollback", "done"},
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "rollback", Routing: routeTo(100, 0)},
			},
		},
	}
}

func waitDone(t *testing.T, r *Run) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := r.Wait(ctx); err != nil {
		t.Fatalf("run did not finish: %v (status %+v)", err, r.Status())
	}
	return r.Status()
}

func TestCanarySucceedsAndRollsOut(t *testing.T) {
	cfg := &recordingConfigurator{}
	eng := New(WithConfigurator(cfg))
	defer eng.Shutdown()

	s := canaryStrategy(core.ConstEvaluator(true), 2*time.Millisecond, 5)
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "done" {
		t.Fatalf("path = %+v, want canary→done", st.Path)
	}
	if st.Path[0].Outcome != 1 {
		t.Errorf("outcome = %d, want 1", st.Path[0].Outcome)
	}

	calls := cfg.snapshot()
	if len(calls) != 2 {
		t.Fatalf("configurator calls = %d, want 2 (canary + done)", len(calls))
	}
	if calls[0].state != "canary" || calls[0].weights["canary"] != 5 {
		t.Errorf("first call = %+v", calls[0])
	}
	if calls[1].state != "done" || calls[1].weights["canary"] != 100 {
		t.Errorf("second call = %+v", calls[1])
	}
	if calls[1].generation <= calls[0].generation {
		t.Errorf("generations not monotonic: %d then %d",
			calls[0].generation, calls[1].generation)
	}
}

func TestCanaryFailureRollsBack(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(false), 2*time.Millisecond, 5)
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 1 || st.Path[0].To != "rollback" {
		t.Fatalf("path = %+v, want canary→rollback", st.Path)
	}
}

func TestCheckExecutionCountsExact(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 7)
	run, _ := eng.Enact(s)
	st := waitDone(t, run)
	if len(st.Checks) != 1 {
		t.Fatalf("checks = %+v", st.Checks)
	}
	c := st.Checks[0]
	// With no explicit state duration the state ends when the timed check
	// has performed all scheduled executions — exactly 7.
	if c.Executions != 7 || c.Successes != 7 || c.Failures != 0 {
		t.Errorf("check = %+v, want 7/7/0", c)
	}
}

func TestEvaluatorErrorCountsAsFailure(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	evalErr := core.EvaluatorFunc(func(context.Context) (bool, error) {
		return true, errors.New("prometheus unreachable")
	})
	s := canaryStrategy(evalErr, time.Millisecond, 3)
	run, _ := eng.Enact(s)
	st := waitDone(t, run)
	if st.Path[0].To != "rollback" {
		t.Fatalf("path = %+v, want rollback on evaluator errors", st.Path)
	}
	if st.Checks[0].LastError == "" {
		t.Error("LastError not recorded")
	}
}

func TestExceptionCheckInterruptsImmediately(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := &core.Strategy{
		Name:     "exception-test",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "watch",
			Finals: []string{"done", "emergency"},
			States: []core.State{
				{
					ID: "watch",
					// The state would run for 10 seconds, but the exception
					// check fails on its first execution after 2ms.
					Duration: 10 * time.Second,
					Checks: []core.Check{{
						Name:       "error_explosion",
						Kind:       core.ExceptionCheck,
						Eval:       core.ConstEvaluator(false),
						Interval:   2 * time.Millisecond,
						Executions: 100,
						Fallback:   "emergency",
					}},
					Thresholds:  []int{0},
					Transitions: []string{"emergency", "done"},
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
				{ID: "emergency", Routing: routeTo(100, 0)},
			},
		},
	}
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
	if len(st.Path) != 1 || st.Path[0].To != "emergency" {
		t.Fatalf("path = %+v, want watch→emergency", st.Path)
	}
	if elapsed > 5*time.Second {
		t.Errorf("rollback took %v; exception should interrupt immediately", elapsed)
	}
	events := eng.RecentEvents(0)
	var sawException bool
	for _, ev := range events {
		if ev.Type == EventExceptionTriggered && ev.Check == "error_explosion" {
			sawException = true
		}
	}
	if !sawException {
		t.Error("no exception_triggered event published")
	}
}

func TestStateReexecutionResetsTimers(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	// Evaluator fails during the first pass and succeeds afterwards, so
	// the state re-executes once ("staying in a certain state if results
	// are not definite") and then proceeds.
	var mu sync.Mutex
	calls := 0
	eval := core.EvaluatorFunc(func(context.Context) (bool, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return calls > 3, nil // first 3 executions fail
	})
	s := &core.Strategy{
		Name:     "reexec-test",
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "probe",
			Finals: []string{"done"},
			States: []core.State{
				{
					ID: "probe",
					Checks: []core.Check{{
						Name:       "flaky",
						Kind:       core.BasicCheck,
						Eval:       eval,
						Interval:   time.Millisecond,
						Executions: 3,
						Thresholds: []int{2},
						Outputs:    []int{0, 1},
					}},
					Thresholds:  []int{0},
					Transitions: []string{"probe", "done"}, // ≤0 re-execute
					Routing:     routeTo(95, 5),
				},
				{ID: "done", Routing: routeTo(0, 100)},
			},
		},
	}
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	if len(st.Path) != 2 {
		t.Fatalf("path = %+v, want probe→probe→done", st.Path)
	}
	if st.Path[0].To != "probe" || st.Path[1].To != "done" {
		t.Errorf("path = %+v", st.Path)
	}
}

func TestAbortMidRun(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(true), 50*time.Millisecond, 1000)
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := eng.Abort(s.Name); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunAborted {
		t.Errorf("state = %s, want aborted", st.State)
	}
}

func TestEnactRejectsInvalidAndDuplicate(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	bad := &core.Strategy{Name: "bad"}
	if _, err := eng.Enact(bad); err == nil {
		t.Fatal("invalid strategy accepted")
	}

	s := canaryStrategy(core.ConstEvaluator(true), 20*time.Millisecond, 100)
	if _, err := eng.Enact(s); err != nil {
		t.Fatalf("Enact: %v", err)
	}
	if _, err := eng.Enact(s); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("duplicate err = %v, want ErrAlreadyRunning", err)
	}
	if err := eng.Abort(s.Name); err != nil {
		t.Fatal(err)
	}
	run, _ := eng.Run(s.Name)
	waitDone(t, run)
	// After completion the name can be reused.
	if _, err := eng.Enact(canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)); err != nil {
		t.Fatalf("re-enact after completion: %v", err)
	}
}

func TestConfiguratorFailureFailsRun(t *testing.T) {
	cfg := &recordingConfigurator{fail: true}
	eng := New(WithConfigurator(cfg))
	defer eng.Shutdown()
	run, err := eng.Enact(canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2))
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Error == "" {
		t.Error("no error recorded")
	}
}

func TestDelayAccounting(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(true), 2*time.Millisecond, 5)
	run, _ := eng.Enact(s)
	st := waitDone(t, run)
	if st.PlannedNanos != int64(8*time.Millisecond) {
		t.Errorf("planned = %v, want 8ms (5 executions spanning 4 intervals)",
			time.Duration(st.PlannedNanos))
	}
	if st.ActualNanos < st.PlannedNanos {
		t.Errorf("actual %v < planned %v", st.ActualNanos, st.PlannedNanos)
	}
	if st.Delay() < 0 {
		t.Errorf("delay = %v, want ≥ 0", st.Delay())
	}
}

func TestRemoveRun(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)
	run, _ := eng.Enact(s)
	if err := eng.Remove(s.Name); err == nil {
		t.Fatal("Remove succeeded while running")
	}
	waitDone(t, run)
	if err := eng.Remove(s.Name); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, ok := eng.Run(s.Name); ok {
		t.Error("run still present after Remove")
	}
	if err := eng.Remove("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Remove(ghost) = %v", err)
	}
}

func TestEventsSubscription(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	events, cancel := eng.Subscribe(256)
	defer cancel()

	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 3)
	run, _ := eng.Enact(s)
	waitDone(t, run)

	types := map[EventType]int{}
	timeout := time.After(5 * time.Second)
	for {
		var done bool
		select {
		case ev := <-events:
			types[ev.Type]++
			if ev.Type == EventCompleted {
				done = true
			}
		case <-timeout:
			t.Fatalf("no completed event; saw %v", types)
		}
		if done {
			break
		}
	}
	if types[EventStateEntered] < 2 {
		t.Errorf("state_entered = %d, want ≥ 2", types[EventStateEntered])
	}
	if types[EventCheckExecuted] != 3 {
		t.Errorf("check_executed = %d, want 3", types[EventCheckExecuted])
	}
	if types[EventTransition] != 1 {
		t.Errorf("transition = %d, want 1", types[EventTransition])
	}
	if types[EventRoutingApplied] < 2 {
		t.Errorf("routing_applied = %d, want ≥ 2", types[EventRoutingApplied])
	}
}

func TestRecentEventsOrdered(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 2)
	run, _ := eng.Enact(s)
	waitDone(t, run)
	events := eng.RecentEvents(0)
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
	limited := eng.RecentEvents(2)
	if len(limited) != 2 {
		t.Errorf("RecentEvents(2) = %d events", len(limited))
	}
	if limited[1].Seq != events[len(events)-1].Seq {
		t.Error("RecentEvents(2) did not return the newest events")
	}
}

func TestRunningExampleOnManualClock(t *testing.T) {
	clk := clock.NewManual(time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC))
	eng := New(WithClock(clk))
	defer eng.Shutdown()

	// One unit = one simulated hour: the full strategy spans ~9 simulated
	// days and completes in well under a second of real time.
	unit := time.Hour
	s := core.RunningExample(unit)
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}

	deadline := time.Now().Add(20 * time.Second)
	for !run.Done() && time.Now().Before(deadline) {
		clk.Advance(15 * time.Minute)
		time.Sleep(200 * time.Microsecond) // let goroutines observe ticks
	}
	if !run.Done() {
		t.Fatalf("running example did not finish; status %+v", run.Status())
	}
	st := run.Status()
	if st.State != RunCompleted {
		t.Fatalf("state = %s (%s), path %+v", st.State, st.Error, st.Path)
	}
	last := st.Path[len(st.Path)-1]
	if last.To != "f" {
		t.Errorf("final state = %s, want f (full rollout); path %+v", last.To, st.Path)
	}
	// All check evaluators succeed, so the rollback state g must not appear.
	for _, tr := range st.Path {
		if tr.To == "g" {
			t.Errorf("unexpected rollback transition %+v", tr)
		}
	}
}

func TestShutdownAbortsEverything(t *testing.T) {
	eng := New()
	runs := make([]*Run, 0, 5)
	for i := 0; i < 5; i++ {
		s := canaryStrategy(core.ConstEvaluator(true), 50*time.Millisecond, 1000)
		s.Name = s.Name + string(rune('a'+i))
		r, err := eng.Enact(s)
		if err != nil {
			t.Fatalf("Enact %d: %v", i, err)
		}
		runs = append(runs, r)
	}
	eng.Shutdown()
	for i, r := range runs {
		if !r.Done() {
			t.Errorf("run %d still active after Shutdown", i)
		}
	}
}
