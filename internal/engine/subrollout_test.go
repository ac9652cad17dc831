package engine

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/journal"
)

// subChild builds a child strategy whose single gated phase passes or fails
// by a constant check: canary → (full | fallback).
func subChild(name string, eval core.Evaluator, interval time.Duration, executions int) *core.Strategy {
	return &core.Strategy{
		Name:     name,
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "canary",
			Finals: []string{"full", "fallback"},
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
					Transitions: []string{"fallback", "full"},
					Routing:     routeTo(95, 5),
				},
				{ID: "full", Routing: routeTo(0, 100)},
				{ID: "fallback", Routing: routeTo(100, 0)},
			},
		},
	}
}

// subParent wraps child refs into a parent: regions → (done | holdback).
func subParent(name string, sub *core.SubRollout) *core.Strategy {
	return &core.Strategy{
		Name:     name,
		Services: twoVersionServices(),
		Automaton: core.Automaton{
			Start:  "regions",
			Finals: []string{"done", "holdback"},
			States: []core.State{
				{
					ID:          "regions",
					Sub:         sub,
					Thresholds:  []int{0},
					Transitions: []string{"holdback", "done"},
				},
				{ID: "done"},
				{ID: "holdback"},
			},
		},
	}
}

func childRef(s *core.Strategy, region string) core.ChildRef {
	return core.ChildRef{
		Name: s.Name, Region: region, SuccessFinal: "full", Strategy: s,
	}
}

func TestSubRolloutQuorumPromotes(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	eu := subChild("hier-eu", core.ConstEvaluator(true), time.Millisecond, 3)
	us := subChild("hier-us", core.ConstEvaluator(true), time.Millisecond, 3)
	ap := subChild("hier-ap", core.ConstEvaluator(false), time.Millisecond, 3)
	parent := subParent("hier", &core.SubRollout{
		Children: []core.ChildRef{childRef(eu, "eu"), childRef(us, "us"), childRef(ap, "ap")},
		Quorum:   2,
	})

	run, err := eng.Enact(parent)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted {
		t.Fatalf("parent state = %s (%s)", st.State, st.Error)
	}
	last := st.Path[len(st.Path)-1]
	if last.To != "done" || last.Outcome != 1 || last.Cause != "quorum" {
		t.Fatalf("final transition = %+v, want regions→done outcome 1 cause quorum", last)
	}

	// The failing region fell back on its own — it was not aborted.
	apRun, ok := eng.Run("hier-ap")
	if !ok {
		t.Fatal("failing child not registered")
	}
	apSt := waitDone(t, apRun)
	if apSt.State != RunCompleted || apSt.Current != "fallback" {
		t.Fatalf("failing child = %s in %q, want completed in fallback", apSt.State, apSt.Current)
	}

	// The parent's Children mirror shows the full region tree.
	if len(st.Children) != 3 {
		t.Fatalf("children = %+v, want 3 entries", st.Children)
	}
	passed := 0
	for _, c := range st.Children {
		if c.Passed {
			passed++
		}
		if c.Region == "" {
			t.Errorf("child %s lost its region label", c.Name)
		}
	}
	if passed < 2 {
		t.Errorf("children = %+v, want >= 2 passed", st.Children)
	}

	// The linkage events landed in the parent's history.
	evs := eng.RunEvents("hier", 0)
	var scheduled, terminal int
	for _, ev := range evs {
		switch ev.Type {
		case EventChildScheduled:
			scheduled++
		case EventChildTerminal:
			terminal++
		}
	}
	if scheduled != 3 {
		t.Errorf("child_scheduled events = %d, want 3", scheduled)
	}
	if terminal < 2 {
		t.Errorf("child_terminal events = %d, want >= 2", terminal)
	}

	// Quorum does not wait for a straggler: with one passing region far
	// slower than the other two, the parent promotes by quorum while that
	// region still runs, and the region is left to finish on its own.
	fastA := subChild("strag-eu", core.ConstEvaluator(true), time.Millisecond, 3)
	fastB := subChild("strag-us", core.ConstEvaluator(true), time.Millisecond, 3)
	slow := subChild("strag-ap", core.ConstEvaluator(true), 100*time.Millisecond, 300)
	stragParent := subParent("strag", &core.SubRollout{
		Children: []core.ChildRef{childRef(fastA, "eu"), childRef(fastB, "us"), childRef(slow, "ap")},
		Quorum:   2,
	})
	stragRun, err := eng.Enact(stragParent)
	if err != nil {
		t.Fatalf("Enact straggler parent: %v", err)
	}
	st = waitDone(t, stragRun)
	last = st.Path[len(st.Path)-1]
	if st.State != RunCompleted || last.To != "done" || last.Cause != "quorum" {
		t.Fatalf("straggler parent = %s, final transition %+v, want completed regions→done cause quorum",
			st.State, last)
	}
	slowRun, ok := eng.Run("strag-ap")
	if !ok {
		t.Fatal("straggler child not registered")
	}
	if s := slowRun.Status(); s.State != RunRunning {
		t.Fatalf("straggler = %s, want still running after the quorum promotion", s.State)
	}
	slowRun.Abort()
}

func TestSubRolloutQuorumUnreachableFailsEarly(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	// Quorum 0 means all three regions must pass; the slow failing region
	// makes early failure (passes + running < need) the only way to finish
	// fast once two fail.
	eu := subChild("unq-eu", core.ConstEvaluator(false), time.Millisecond, 3)
	us := subChild("unq-us", core.ConstEvaluator(false), time.Millisecond, 3)
	ap := subChild("unq-ap", core.ConstEvaluator(true), 20*time.Millisecond, 200)
	parent := subParent("unq", &core.SubRollout{
		Children: []core.ChildRef{childRef(eu, "eu"), childRef(us, "us"), childRef(ap, "ap")},
	})

	run, err := eng.Enact(parent)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	last := st.Path[len(st.Path)-1]
	if last.To != "holdback" || last.Cause != "quorum_failed" {
		t.Fatalf("final transition = %+v, want regions→holdback cause quorum_failed", last)
	}
	// The fallback policy contains failures: the still-running region was
	// NOT aborted by the parent's failure.
	apRun, _ := eng.Run("unq-ap")
	if apRun.Done() {
		if s := apRun.Status(); s.State == RunAborted {
			t.Fatalf("sibling was aborted under fallback policy: %+v", s)
		}
	}
	apRun.Abort() // clean shutdown
}

func TestSubRolloutAbortPolicy(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	bad := subChild("abr-eu", core.ConstEvaluator(false), time.Millisecond, 2)
	slow1 := subChild("abr-us", core.ConstEvaluator(true), 20*time.Millisecond, 500)
	slow2 := subChild("abr-ap", core.ConstEvaluator(true), 20*time.Millisecond, 500)
	parent := subParent("abr", &core.SubRollout{
		Children:    []core.ChildRef{childRef(bad, "eu"), childRef(slow1, "us"), childRef(slow2, "ap")},
		Quorum:      2,
		OnChildFail: core.ChildFailAbort,
	})

	run, err := eng.Enact(parent)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)
	last := st.Path[len(st.Path)-1]
	if last.To != "holdback" || last.Cause != "child_failure" {
		t.Fatalf("final transition = %+v, want regions→holdback cause child_failure", last)
	}
	for _, name := range []string{"abr-us", "abr-ap"} {
		r, ok := eng.Run(name)
		if !ok {
			t.Fatalf("sibling %s not registered", name)
		}
		s := waitDone(t, r)
		if s.State != RunAborted {
			t.Errorf("sibling %s = %s, want aborted (abort policy)", name, s.State)
		}
	}
}

func TestSubRolloutRejectsPause(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	slow := subChild("nop-eu", core.ConstEvaluator(true), 20*time.Millisecond, 500)
	parent := subParent("nop", &core.SubRollout{
		Children: []core.ChildRef{childRef(slow, "eu")},
	})
	run, err := eng.Enact(parent)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	waitState(t, run, "regions")
	if _, err := run.Pause(); err == nil || !strings.Contains(err.Error(), "cannot be paused") {
		t.Fatalf("Pause on sub-rollout state: err = %v, want rejection", err)
	}
	// Manual promote overrides the quorum like any other gate.
	if err := run.Promote(""); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	st := waitDone(t, run)
	if st.State != RunCompleted || st.Current != "done" {
		t.Fatalf("after promote: %s in %q", st.State, st.Current)
	}
	if r, ok := eng.Run("nop-eu"); ok {
		r.Abort()
	}
}

func waitState(t *testing.T, r *Run, state string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if r.Status().Current == state {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run never reached state %q (at %q)", state, r.Status().Current)
}

// TestFlatRunsCarryNoChildKeys is the byte-identity guard: a flat strategy's
// journal records and status must not gain a single new key from the
// hierarchical machinery.
func TestFlatRunsCarryNoChildKeys(t *testing.T) {
	eng := New()
	defer eng.Shutdown()

	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 3)
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	st := waitDone(t, run)

	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"children", "child", "region", "childState", "childPhase"} {
		if strings.Contains(string(raw), `"`+key+`"`) {
			t.Errorf("flat run status contains key %q: %s", key, raw)
		}
	}
	for _, ev := range eng.RunEvents(s.Name, 0) {
		raw, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"child", "region", "childState", "childPhase"} {
			if strings.Contains(string(raw), `"`+key+`"`) {
				t.Errorf("flat run event %s contains key %q: %s", ev.Type, key, raw)
			}
		}
	}
}

// TestSubRolloutRecovery suspends an engine mid-sub-rollout and recovers it
// on the same journal: the parent must re-link to its children (no fresh
// child_scheduled events), pick up their terminals, and promote exactly
// once.
func TestSubRolloutRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		js, err := OpenJournal(dir, journal.Options{FlushInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		return New(WithJournalSet(js))
	}

	eu := subChild("rec-eu", core.ConstEvaluator(true), 5*time.Millisecond, 10)
	us := subChild("rec-us", core.ConstEvaluator(true), 5*time.Millisecond, 10)
	parent := subParent("rec", &core.SubRollout{
		Children: []core.ChildRef{childRef(eu, "eu"), childRef(us, "us")},
		Quorum:   2,
	})
	compile := func(src string) (*core.Strategy, error) {
		switch src {
		case "src-rec":
			return parent, nil
		case "src-rec-eu":
			return eu, nil
		case "src-rec-us":
			return us, nil
		}
		return nil, fmt.Errorf("unknown source %q", src)
	}
	// The children carry their sources so the engine can journal and
	// recover them independently of the parent.
	parent.Automaton.States[0].Sub.Children[0].Source = "src-rec-eu"
	parent.Automaton.States[0].Sub.Children[1].Source = "src-rec-us"

	eng := open()
	run, err := eng.EnactSource(parent, "src-rec")
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	waitState(t, run, "regions")
	// Let the children get scheduled before suspending.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := eng.Run("rec-eu"); ok {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.Suspend()

	eng2 := open()
	defer eng2.Shutdown()
	report, err := eng2.Recover(compile)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for name, reason := range report.Skipped {
		t.Fatalf("recovery skipped %s: %s", name, reason)
	}
	run2, ok := eng2.Run("rec")
	if !ok {
		t.Fatal("parent not recovered")
	}
	st := waitDone(t, run2)
	if st.State != RunCompleted || st.Current != "done" {
		t.Fatalf("recovered parent = %s in %q (%s)", st.State, st.Current, st.Error)
	}
	last := st.Path[len(st.Path)-1]
	if last.Cause != "quorum" {
		t.Fatalf("final transition = %+v, want cause quorum", last)
	}

	// Exactly one promote decision and one scheduled announcement per child
	// across both lives.
	evs := eng2.RunEvents("rec", 0)
	announced := map[string]int{}
	transitions := 0
	for _, ev := range evs {
		if ev.Type == EventChildScheduled {
			announced[ev.Child]++
		}
		if ev.Type == EventTransition && ev.State == "regions" {
			transitions++
		}
	}
	for child, n := range announced {
		if n != 1 {
			t.Errorf("child %s announced %d times, want 1", child, n)
		}
	}
	if transitions != 1 {
		t.Errorf("regions state transitioned %d times, want exactly 1", transitions)
	}
	if len(st.Children) != 2 || !st.Children[0].Passed || !st.Children[1].Passed {
		t.Errorf("recovered children mirror = %+v", st.Children)
	}
}
