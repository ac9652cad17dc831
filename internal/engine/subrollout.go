package engine

// Hierarchical rollouts: a parent run entering a state with a
// core.SubRollout schedules each child strategy as an independent run —
// through the ChildRunner, so in a cluster they shard across replicas,
// journal into their own partitions, and recover independently — then
// watches their terminal events and decides the state's outcome by quorum.
//
// The parent journals child-linkage events (child_scheduled, child_update,
// child_terminal) into its OWN partition. The mirror reduces them into
// Status.Children, which is also the recovery seed: a replica adopting the
// parent mid-sub-rollout replays those events, re-schedules the children
// (a no-op for ones already running), reconciles against their live
// status for terminals missed while down, and continues the quorum count
// without re-publishing what the journal already holds. Double-applying
// the promote is prevented by journal fencing: the previous owner's
// transition append is rejected with ErrFenced once the lease moved.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bifrost/internal/core"
)

// childPollInterval paces the status-poll fallback of a sub-rollout state:
// watcher events are the primary signal, the poll catches terminals that a
// dropped subscription or an adoption gap would otherwise lose.
const childPollInterval = 2 * time.Second

// childAbortBudget bounds the best-effort child aborts issued when a
// sub-rollout fails under the abort policy, is rolled back manually, or
// its parent run is aborted.
const childAbortBudget = 10 * time.Second

// ChildRunner schedules and observes sub-rollout child runs on behalf of a
// parent. The default implementation enacts them in-process; cluster
// deployments install an HTTP-backed runner (HTTPChildRunner) so children
// go through the normal schedule path and shard across the fleet.
type ChildRunner interface {
	// Schedule starts the child run. Scheduling a child that is already
	// running or already finished is a no-op — recovery re-links by
	// re-scheduling everything it cannot prove terminal.
	Schedule(ctx context.Context, ref core.ChildRef) error
	// Watch streams the child's events until stop is called.
	Watch(ctx context.Context, name string) (<-chan Event, func(), error)
	// Status fetches the child's current status.
	Status(ctx context.Context, name string) (Status, error)
	// Abort stops the child run (best effort; finished children tolerate it).
	Abort(ctx context.Context, name string) error
}

// localChildRunner enacts children in the parent's own engine.
type localChildRunner struct {
	eng *Engine
}

func (l localChildRunner) Schedule(ctx context.Context, ref core.ChildRef) error {
	if _, ok := l.eng.Run(ref.Name); ok {
		return nil // already known (running or finished): recovery re-link
	}
	_, err := l.eng.EnactSource(ref.Strategy, ref.Source)
	if errors.Is(err, ErrAlreadyRunning) {
		return nil
	}
	return err
}

func (l localChildRunner) Watch(ctx context.Context, name string) (<-chan Event, func(), error) {
	raw, cancel := l.eng.Subscribe(256)
	out := make(chan Event, 64)
	go func() {
		defer close(out)
		for ev := range raw {
			if ev.Strategy != name {
				continue
			}
			select {
			case out <- ev:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, cancel, nil
}

func (l localChildRunner) Status(ctx context.Context, name string) (Status, error) {
	r, ok := l.eng.Run(name)
	if !ok {
		return Status{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return r.Status(), nil
}

func (l localChildRunner) Abort(ctx context.Context, name string) error {
	err := l.eng.Abort(name)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	return err
}

// HTTPChildRunner schedules sub-rollout children through an engine API
// endpoint — in HA deployments the cluster handler behind it places each
// child on the replica winning its lease, exactly like an operator POST.
type HTTPChildRunner struct {
	Client *Client
}

func (h HTTPChildRunner) Schedule(ctx context.Context, ref core.ChildRef) error {
	if _, err := h.Client.Get(ctx, ref.Name); err == nil {
		return nil // already scheduled (recovery re-link)
	}
	if _, err := h.Client.Schedule(ctx, ref.Source); err != nil {
		// Lost the race against our own earlier schedule surviving a
		// retry? The run existing is the success condition.
		if _, gerr := h.Client.Get(ctx, ref.Name); gerr == nil {
			return nil
		}
		return err
	}
	return nil
}

func (h HTTPChildRunner) Watch(ctx context.Context, name string) (<-chan Event, func(), error) {
	return h.Client.Watch(ctx, name, 32)
}

func (h HTTPChildRunner) Status(ctx context.Context, name string) (Status, error) {
	return h.Client.Get(ctx, name)
}

func (h HTTPChildRunner) Abort(ctx context.Context, name string) error {
	return h.Client.Abort(ctx, name)
}

// childTrack is the parent's bookkeeping for one sub-rollout child.
type childTrack struct {
	ref    core.ChildRef
	phase  string // automaton state the child is in
	state  string // run state (running, paused, completed, ...)
	done   bool
	passed bool
	// announced marks the child_scheduled event as already on the stream
	// (seeded from a recovered parent's mirrored Children).
	announced bool
}

// executeSubRollout drives one sub-rollout state: schedule the children,
// mirror their progress as child-linkage events, and resolve the state's
// outcome (1: quorum of children passed, 0: it cannot be reached anymore)
// through the normal δ mapping. Operator promote/rollback override the
// quorum like any other gate; pause is rejected — the children run
// independently and holding the parent would not hold them.
func (r *Run) executeSubRollout(ctx context.Context, state *core.State) (stepResult, error) {
	sub := state.Sub
	clk := r.engine.clk
	runner := r.engine.children

	tracks := make(map[string]*childTrack, len(sub.Children))
	order := make([]string, 0, len(sub.Children))
	for i := range sub.Children {
		ref := sub.Children[i]
		tracks[ref.Name] = &childTrack{ref: ref}
		order = append(order, ref.Name)
	}
	// Recovery re-link: journal replay reduced the parent's child-linkage
	// events into Status.Children. Seed tracking from it so finished
	// children stay decided and nothing already journaled is re-published.
	for _, cs := range r.Status().Children {
		if t, ok := tracks[cs.Name]; ok {
			t.phase, t.state = cs.Phase, cs.State
			t.done, t.passed = cs.Passed || cs.Failed, cs.Passed
			t.announced = true
		}
	}

	// publishChild reports a child's progress; the parent's status reduces
	// it into Status.Children.
	publishChild := func(typ EventType, t *childTrack, detail string, outcome int) {
		r.publish(Event{
			Type: typ, State: state.ID,
			Child: t.ref.Name, Region: t.ref.Region,
			ChildState: t.state, ChildPhase: t.phase,
			Detail: detail, Outcome: outcome,
			Time: clk.Now(),
		})
	}
	applyTerminal := func(t *childTrack, runState, finalPhase string) {
		if t.done {
			return
		}
		t.done = true
		t.state = runState
		if finalPhase != "" {
			t.phase = finalPhase
		}
		t.passed = runState == string(RunCompleted) &&
			(t.ref.SuccessFinal == "" || t.phase == t.ref.SuccessFinal)
		detail, outcome := "failed", 0
		if t.passed {
			detail, outcome = "passed", 1
		}
		publishChild(EventChildTerminal, t,
			"region "+t.ref.RegionOrName()+" "+detail, outcome)
	}
	abortRunning := func() {
		actx, cancel := context.WithTimeout(context.Background(), childAbortBudget)
		defer cancel()
		for _, name := range order {
			if t := tracks[name]; !t.done {
				_ = runner.Abort(actx, t.ref.Name)
			}
		}
	}

	// Schedule every undecided child and attach its watcher. Watchers feed
	// one merged channel; the forwarding goroutines die with watchCtx.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	updates := make(chan Event, 64)
	var stops []func()
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()
	for _, name := range order {
		t := tracks[name]
		if t.done {
			continue
		}
		// A few brief retries ride out HA races (a child lease mid-adoption
		// when the parent itself was just adopted by a new replica).
		var err error
		for attempt := 0; attempt < 5; attempt++ {
			if err = runner.Schedule(ctx, t.ref); err == nil {
				break
			}
			select {
			case <-time.After(250 * time.Millisecond):
			case <-ctx.Done():
				return stepResult{}, ctx.Err()
			case <-r.engine.stopping:
				return stepResult{}, errSuspended
			case <-r.evicted:
				return stepResult{}, errSuspended
			}
		}
		if err != nil {
			return stepResult{}, fmt.Errorf("schedule sub-rollout child %s: %w", name, err)
		}
		if !t.announced {
			t.state = string(RunRunning)
			t.announced = true
			publishChild(EventChildScheduled, t, "region "+t.ref.RegionOrName(), 0)
		}
		ch, stop, err := runner.Watch(watchCtx, name)
		if err != nil {
			return stepResult{}, fmt.Errorf("watch sub-rollout child %s: %w", name, err)
		}
		stops = append(stops, stop)
		go func() {
			for ev := range ch {
				select {
				case updates <- ev:
				case <-watchCtx.Done():
					return
				}
			}
		}()
	}

	// poll reconciles against the children's live status: a child's
	// terminal event lands in ITS partition, so an adopting replica (or a
	// parent whose watcher dropped events) must ask rather than wait.
	poll := func() {
		for _, name := range order {
			t := tracks[name]
			if t.done {
				continue
			}
			st, err := runner.Status(ctx, name)
			if err != nil {
				continue // not adopted anywhere yet, or transient API error
			}
			if st.State.terminal() {
				applyTerminal(t, string(st.State), st.Current)
				continue
			}
			if st.Current != "" && (st.Current != t.phase || string(st.State) != t.state) {
				t.phase, t.state = st.Current, string(st.State)
				publishChild(EventChildUpdate, t, "", 0)
			}
		}
	}
	poll()

	need := sub.QuorumOrAll()
	policy := sub.FailPolicy()
	// decide evaluates the quorum after every change. Outcome 1 as soon as
	// enough regions passed (still-running siblings keep rolling out on
	// their own); outcome 0 depends on the failure policy: fallback fails
	// the parent only once the quorum is unreachable, abort fails it on the
	// first child failure, continue waits for every region to finish.
	decide := func() (bool, int, string) {
		passes, fails, running := 0, 0, 0
		for _, t := range tracks {
			switch {
			case !t.done:
				running++
			case t.passed:
				passes++
			default:
				fails++
			}
		}
		if passes >= need {
			return true, 1, "quorum"
		}
		switch policy {
		case core.ChildFailAbort:
			if fails > 0 {
				return true, 0, "child_failure"
			}
		case core.ChildFailContinue:
			if running == 0 {
				return true, 0, "quorum_failed"
			}
		default: // fallback: contain failures, fail early only when hopeless
			if passes+running < need {
				return true, 0, "quorum_failed"
			}
		}
		return false, 0, ""
	}

	ticker := clk.NewTicker(childPollInterval)
	defer ticker.Stop()
	for {
		if decided, outcome, cause := decide(); decided {
			if cause == "child_failure" {
				// abort policy: the first region failing kills its siblings.
				abortRunning()
			}
			next, err := state.NextState(outcome)
			if err != nil {
				return stepResult{}, err
			}
			return stepResult{next: next, outcome: outcome, cause: cause}, nil
		}
		select {
		case ev := <-updates:
			t, ok := tracks[ev.Strategy]
			if !ok || t.done {
				continue
			}
			switch ev.Type {
			case EventStateEntered:
				if t.phase != ev.State || t.state != string(RunRunning) {
					t.phase, t.state = ev.State, string(RunRunning)
					publishChild(EventChildUpdate, t, ev.Detail, 0)
				}
			case EventPaused:
				t.state = string(RunPaused)
				publishChild(EventChildUpdate, t, "paused", 0)
			case EventResumed:
				t.state = string(RunRunning)
				publishChild(EventChildUpdate, t, "resumed", 0)
			case EventCompleted:
				applyTerminal(t, string(RunCompleted), "")
			case EventAborted:
				applyTerminal(t, string(RunAborted), "")
			case EventError:
				applyTerminal(t, string(RunFailed), "")
			}
		case <-ticker.C():
			poll()
		case <-r.engine.stopping:
			return stepResult{}, errSuspended
		case <-r.evicted:
			return stepResult{}, errSuspended
		case msg := <-r.controls:
			switch msg.kind {
			case ctrlPause:
				msg.reply <- ctrlReply{err: fmt.Errorf(
					"engine: sub-rollout state %q cannot be paused (its children run independently); promote, rollback, or abort instead",
					state.ID)}
			case ctrlResume:
				msg.reply <- ctrlReply{err: ErrNotPaused}
			case ctrlPromote, ctrlRollback:
				target, err := r.manualTarget(state, msg)
				if err != nil {
					msg.reply <- ctrlReply{err: err}
					continue
				}
				if msg.kind == ctrlRollback {
					// A manual failure verdict abandons the rollout
					// everywhere; a manual promote lets the remaining
					// regions finish on their own, like a quorum pass.
					abortRunning()
				}
				r.publishGateDecision(state, msg.kind, target)
				msg.reply <- ctrlReply{}
				return stepResult{next: target, cause: msg.kind.String()}, nil
			}
		case <-ctx.Done():
			// Aborting the parent aborts the tree.
			abortRunning()
			return stepResult{}, ctx.Err()
		}
	}
}
