package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/metrics"
)

// RunState is the lifecycle state of one strategy enactment.
type RunState string

// Run lifecycle states.
const (
	RunPending   RunState = "pending"
	RunRunning   RunState = "running"
	RunPaused    RunState = "paused"
	RunCompleted RunState = "completed"
	RunAborted   RunState = "aborted"
	RunFailed    RunState = "failed"
)

// Run is one executing (or finished) strategy enactment.
type Run struct {
	engine   *Engine
	strategy *core.Strategy
	cancel   context.CancelFunc
	done     chan struct{}
	// evicted is closed by Engine.Evict when this replica loses the run's
	// ownership lease: the loop exits exactly like a suspend — no terminal
	// record — because the run lives on, adopted by another replica.
	evicted   chan struct{}
	evictOnce sync.Once
	// controls carries operator commands (pause, resume, manual gate
	// decisions) into the run loop, which consumes them while a state is
	// executing or paused.
	controls chan controlMsg
	// recov is set on runs rebuilt from the journal: the loop re-enters
	// the recorded state with its elapsed time instead of starting over.
	recov *recovered
	// recoveredRouting, consumed by the next enterState, holds the
	// routing configurations in force at the crash: the re-entry applies
	// the ones its state does not itself declare, so routing that
	// persisted across routeless states is restored too (proxies may
	// have restarted during the downtime). Loop-local.
	recoveredRouting []core.RoutingConfig
	// targets resolves each service's enactment target; set once when
	// the loop starts, before the reconciler that reads it.
	targets *runTargets
	// pauseGen is the current pause generation, which a conditional resume
	// must match. Loop-local.
	pauseGen int

	// mirror is the run's journal reduction, created by its own scheduled
	// event or by its replay, and guarded by the engine's pubMu. It is the
	// run's status: a re-enactment under the same name reduces into a new
	// one.
	mirror *runMirror
}

// controlKind enumerates operator commands on a run.
type controlKind int

const (
	ctrlPause controlKind = iota
	ctrlResume
	ctrlPromote
	ctrlRollback
)

func (k controlKind) String() string {
	switch k {
	case ctrlPause:
		return "pause"
	case ctrlResume:
		return "resume"
	case ctrlPromote:
		return "promote"
	default:
		return "rollback"
	}
}

// controlMsg is one operator command delivered to the run loop.
type controlMsg struct {
	kind controlKind
	// target optionally names the successor state for promote/rollback.
	target string
	// gen is the pause generation a resume must match (<= 0: unconditional).
	gen   int
	reply chan ctrlReply
}

// ctrlReply is the run loop's verdict on one control message.
type ctrlReply struct {
	err error
	// gen is the pause generation created by the acknowledged pause. It is
	// carried in the reply (not re-read from status afterwards) so a Pause
	// racing another operator's pause/resume cycle still returns its own
	// generation.
	gen int
}

// stepResult is the outcome of executing one automaton state.
type stepResult struct {
	// next is the successor state chosen by δ, an exception fallback, or a
	// manual gate decision.
	next    string
	outcome int
	// cause records how the transition was decided: "" for δ, "exception"
	// for an exception-check interrupt, "burnrate" for an SLO burn-rate
	// rollback, "sequential" for a failing sequential gate with a
	// fallback, "changepoint" for a detected distribution shift,
	// "promote"/"rollback" for manual operator decisions.
	cause string
	// reenter asks the loop to re-enter the current state (after a
	// pause/resume cycle: routing is re-applied and all timers reset).
	reenter bool
}

// Status is a snapshot of a run's progress: the reduction of the events
// the run published, the same live and after a restart.
type Status struct {
	Strategy string   `json:"strategy"`
	State    RunState `json:"state"`
	// Current is the automaton state being executed.
	Current string `json:"current,omitempty"`
	// EnteredAt is when Current was entered.
	EnteredAt time.Time `json:"enteredAt,omitempty"`
	// StartedAt / FinishedAt bracket the whole enactment: the times of its
	// scheduled event and of its terminal one.
	StartedAt  time.Time `json:"startedAt,omitempty"`
	FinishedAt time.Time `json:"finishedAt,omitempty"`
	// PlannedNanos accumulates the specified duration of every state the
	// run entered; ActualNanos is active wall time, set when the run
	// finishes (downtime between engine lives excluded). Their difference
	// is the enactment delay studied in Figures 8 and 10 of the paper.
	PlannedNanos int64 `json:"plannedNanos"`
	ActualNanos  int64 `json:"actualNanos"`
	// Path records every transition taken.
	Path []Transition `json:"path"`
	// Checks is the live progress of the latest state with checks: one
	// entry per declared check, zeroed on each entry into the state
	// (re-entries included) and advanced by every execution.
	Checks []CheckStatus `json:"checks,omitempty"`
	// Fleet reports per-service convergence as last published by the run's
	// background reconciler (targets that settle only).
	Fleet []FleetStatus `json:"fleet,omitempty"`
	// Children mirrors the sub-rollout children of a hierarchical run,
	// reduced from the child-linkage events in the parent's own partition —
	// live and on journal replay alike, so a recovered parent re-links to
	// its still-running children from this very list.
	Children []ChildStatus `json:"children,omitempty"`
	// PauseGen counts completed Pause calls. A Resume carrying a non-zero
	// generation only succeeds while that pause is still the current one.
	PauseGen int `json:"pauseGen,omitempty"`
	// Recovered marks a run rebuilt from the journal after an engine
	// restart: it resumed its recorded state rather than starting fresh.
	Recovered bool `json:"recovered,omitempty"`
	// Error holds the failure cause for RunFailed.
	Error string `json:"error,omitempty"`
}

// Delay returns the enactment delay: wall time beyond the specified
// execution time of the states the run passed through.
func (s Status) Delay() time.Duration {
	return time.Duration(s.ActualNanos - s.PlannedNanos)
}

// Transition is one δ firing.
type Transition struct {
	From    string    `json:"from"`
	To      string    `json:"to"`
	Outcome int       `json:"outcome"`
	At      time.Time `json:"at"`
	// Cause is empty for automatic δ transitions, "exception" for
	// exception-check interrupts, "burnrate" for SLO burn-rate rollbacks,
	// "sequential" for failing sequential gates with a fallback,
	// "changepoint" for detected distribution shifts, and
	// "promote"/"rollback" for manual operator gate decisions.
	Cause string `json:"cause,omitempty"`
}

// ChildStatus is one sub-rollout child's progress as seen by its parent:
// which run state it is in, which automaton state, and — once terminal —
// whether it counted toward the quorum.
type ChildStatus struct {
	Name   string `json:"name"`
	Region string `json:"region,omitempty"`
	// State is the child's run state (running, completed, aborted, ...).
	State string `json:"state,omitempty"`
	// Phase is the automaton state the child is executing.
	Phase  string `json:"phase,omitempty"`
	Passed bool   `json:"passed,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// CheckStatus reports one check's progress within the current state.
type CheckStatus struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Executions int    `json:"executions"`
	Successes  int    `json:"successes"`
	Failures   int    `json:"failures"`
	// Inconclusive counts executions of a statistical check that could
	// not conclude (insufficient data in the window, provider errors).
	Inconclusive int    `json:"inconclusive,omitempty"`
	LastError    string `json:"lastError,omitempty"`
	// Verdict is the latest statistical verdict of a compare, sequential,
	// or burnrate check.
	Verdict *core.Verdict `json:"verdict,omitempty"`
}

// Strategy returns the strategy this run enacts.
func (r *Run) Strategy() *core.Strategy { return r.strategy }

// Status snapshots the run: a copy of its journal reduction.
func (r *Run) Status() Status {
	r.engine.pubMu.Lock()
	defer r.engine.pubMu.Unlock()
	if r.mirror == nil {
		// Registered, but its scheduled event is not published yet.
		return Status{Strategy: r.strategy.Name, State: RunPending}
	}
	return r.mirror.Status.clone()
}

// Done reports whether the run has finished.
func (r *Run) Done() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the run finishes or ctx is cancelled.
func (r *Run) Wait(ctx context.Context) error {
	select {
	case <-r.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Abort cancels the run.
func (r *Run) Abort() { r.cancel() }

// Pause suspends enactment at the current state: running checks are stopped
// and the automaton holds position until Resume, a manual gate decision, or
// an abort. It returns the new pause generation, which a later Resume can
// pass to guard against racing another operator's pause/resume cycle.
func (r *Run) Pause() (int, error) {
	rep := r.control(controlMsg{kind: ctrlPause})
	return rep.gen, rep.err
}

// Resume continues a paused run by re-entering the current state (routing is
// re-applied, check timers reset). gen > 0 must match the generation returned
// by the Pause being resumed; gen <= 0 resumes unconditionally.
func (r *Run) Resume(gen int) error {
	return r.control(controlMsg{kind: ctrlResume, gen: gen}).err
}

// Promote forces the transition the operator chose instead of waiting for δ:
// the run leaves the current state for target immediately. An empty target
// selects the state's highest-outcome successor (its success path). Promote
// works both while the state is executing and while the run is paused —
// the paper's "release engineer intervenes when checks are ambiguous" case.
func (r *Run) Promote(target string) error {
	return r.control(controlMsg{kind: ctrlPromote, target: target}).err
}

// Rollback is Promote's counterpart for failing a gate manually: an empty
// target selects the state's lowest-outcome successor (its failure path).
func (r *Run) Rollback(target string) error {
	return r.control(controlMsg{kind: ctrlRollback, target: target}).err
}

// control delivers one operator command to the run loop and waits for its
// verdict. Finished runs reject every command.
func (r *Run) control(msg controlMsg) ctrlReply {
	msg.reply = make(chan ctrlReply, 1)
	select {
	case r.controls <- msg:
		// The send completed, so the loop received the command, and every
		// receive path replies (the reply channel is buffered). Waiting on
		// the reply alone avoids mis-reporting ErrFinished when the
		// command itself finished the run (a promote into a final state
		// closes done right after replying).
		return <-msg.reply
	case <-r.done:
		return ctrlReply{err: ErrFinished}
	}
}

// publish stamps the run's strategy name onto ev and sends it through the
// engine's publish pipeline (sequencing, subscribers, durable history,
// journal).
func (r *Run) publish(ev Event) {
	ev.Strategy = r.strategy.Name
	r.engine.publish(r.strategy, ev)
}

// loop is the run's main goroutine: it walks the automaton until a final
// state, an abort, or a failure. A recovered run (r.recov set) re-enters
// its journaled state, resuming the state timer from the recorded elapsed
// time; its checks re-arm from zero.
func (r *Run) loop(ctx context.Context) {
	defer close(r.done)
	clk := r.engine.clk
	rc := r.recov

	// Defer order matters: retire runs before close(r.done) (LIFO vs the
	// deferred close at the top of loop), and Enact/Remove gate on that
	// channel — so a re-enactment of this strategy name can only register
	// fresh target state after this retire has finished, never before it.
	r.targets = r.engine.resolveTargets(r.strategy)
	defer r.targets.retire()

	// Targets that settle get a per-run anti-entropy reconciler: it polls
	// every replica, re-pushes the current generation to lagging or
	// restarted ones, and publishes routing_converged/routing_degraded
	// transitions. It lives for the whole run (routing persists across
	// states that declare none) and is stopped — synchronously, so no
	// convergence event can land after the terminal record — by finish()
	// or, on suspend, by the deferred stop below.
	stopReconciler := func() {}
	if r.targets.tracks {
		rctx, rcancel := context.WithCancel(ctx)
		rdone := make(chan struct{})
		go func() {
			defer close(rdone)
			r.reconcileLoop(rctx)
		}()
		stopReconciler = func() {
			rcancel()
			<-rdone
		}
		defer stopReconciler()
	}

	finish := func(state RunState, errMsg string) {
		stopReconciler()
		if state != RunAborted && r.targets.tracks {
			// Completed and failed runs get one last anti-entropy pass;
			// aborted ones skip it — the operator just cancelled the run
			// (Shutdown aborts every run and must not stall on unreachable
			// proxies, nor should routing be re-pushed after an abort).
			r.finalFleetCheck()
		}
		now := clk.Now()
		switch state {
		case RunCompleted:
			r.publish(Event{Type: EventCompleted, Time: now})
		case RunAborted:
			r.publish(Event{Type: EventAborted, Time: now})
		case RunFailed:
			r.publish(Event{Type: EventError, Detail: errMsg, Time: now})
		}
		r.engine.registry.Gauge("engine_enactment_delay_seconds",
			metrics.Labels{"strategy": r.strategy.Name}).
			Set(r.Status().Delay().Seconds())
	}

	current := r.strategy.Automaton.Start
	resuming := rc != nil
	if resuming && rc.current != "" {
		current = rc.current
	}
	for {
		select {
		case <-ctx.Done():
			finish(RunAborted, "")
			return
		case <-r.engine.stopping:
			return // suspended: no terminal record, the journal resumes us
		case <-r.evicted:
			return // lease lost: another replica is adopting this run
		default:
		}

		state, ok := r.strategy.Automaton.State(current)
		if !ok {
			finish(RunFailed, "unknown state "+current)
			return
		}

		if err := r.enterState(ctx, state); err != nil {
			if ctx.Err() != nil {
				finish(RunAborted, "")
				return
			}
			finish(RunFailed, err.Error())
			return
		}

		if r.strategy.Automaton.IsFinal(state.ID) {
			finish(RunCompleted, "")
			return
		}

		var res stepResult
		var err error
		if state.Sub != nil {
			// A sub-rollout state: the children are its checks and clock.
			// Recovery needs no special entry here — executeSubRollout
			// re-links from the mirror-reduced Status.Children.
			res, err = r.executeSubRollout(ctx, state)
		} else if resuming && rc.paused {
			// The run was paused when the engine went down: hold position
			// again (routing above was re-asserted), same pause generation.
			res, err = r.pausedWait(ctx, state, r.pauseGen)
		} else {
			// A true re-entry (the state was entered before the crash) keeps
			// its elapsed time; a run recovered before entering any state
			// starts its first state fresh.
			var elapsed time.Duration
			if resuming && rc.current != "" {
				elapsed = rc.elapsed
			}
			res, err = r.executeState(ctx, state, elapsed)
		}
		resuming = false
		if err != nil {
			if errors.Is(err, errSuspended) {
				return
			}
			if ctx.Err() != nil {
				finish(RunAborted, "")
				return
			}
			finish(RunFailed, err.Error())
			return
		}
		if res.reenter {
			// Resumed from a pause: re-enter the same state so routing is
			// re-applied and every check timer restarts from zero.
			continue
		}

		r.engine.mTransitions.Inc()
		r.publish(Event{
			Type: EventTransition, State: state.ID,
			Detail: res.next, Outcome: res.outcome, Cause: res.cause, Time: clk.Now(),
		})
		current = res.next
	}
}

// enterState records entry and applies the state's routing configurations.
func (r *Run) enterState(ctx context.Context, state *core.State) error {
	clk := r.engine.clk
	r.publish(Event{
		Type: EventStateEntered, State: state.ID,
		Detail: state.Description, Time: clk.Now(),
	})

	// A recovery re-entry also restores routing that persisted from
	// earlier states (the re-entered state may declare none of it);
	// services the state routes itself are applied from the state alone.
	routing := state.Routing
	if extras := r.recoveredRouting; extras != nil {
		r.recoveredRouting = nil
		covered := make(map[string]bool, len(state.Routing))
		for i := range state.Routing {
			covered[state.Routing[i].Service] = true
		}
		routing = append([]core.RoutingConfig(nil), state.Routing...)
		for _, rc := range extras {
			if !covered[rc.Service] {
				routing = append(routing, rc)
			}
		}
	}
	for i := range routing {
		rc := routing[i]
		gen := r.engine.nextGeneration()
		if err := r.targets.apply(ctx, r.strategy, state, rc, gen); err != nil {
			return err
		}
		r.publish(Event{
			Type: EventRoutingApplied, State: state.ID,
			Detail: rc.Service, Generation: gen, Time: clk.Now(),
		})
		// Only now may the reconciler report this fleet: a degraded event
		// for generation gen must never precede its routing_applied.
		r.targets.settled(rc.Service)
	}
	return nil
}

// executeState runs the state's checks to completion (or interrupt) and
// returns the successor chosen by δ together with the aggregated outcome.
// While the state executes, the run loop also consumes operator controls:
// pause suspends it, and manual promote/rollback decisions override δ.
// elapsed is the time already spent in this state before an engine
// restart: the state timer runs only for the remainder, and the checks
// schedule the executions that fit in it.
func (r *Run) executeState(ctx context.Context, state *core.State, elapsed time.Duration) (stepResult, error) {
	clk := r.engine.clk
	stateCtx, cancelState := context.WithCancel(ctx)
	defer cancelState()

	var window time.Duration
	var phaseC <-chan time.Time
	if state.Duration > 0 {
		// When the recorded elapsed time already covers the whole phase,
		// the timer fires at once and δ decides on one execution per check.
		window = max(state.Duration-elapsed, time.Nanosecond)
		timer := clk.NewTimer(window)
		defer timer.Stop()
		phaseC = timer.C()
	}

	// One schedule for all the state's checks: the loop keeps one timer
	// for the next due execution, runs each execution on a short-lived
	// goroutine, and alone records the results. A check has at most one
	// execution in flight, so a send on finished never blocks.
	entry := clk.Now()
	runners := make([]*checkRunner, len(state.Checks))
	pending := 0 // scheduled executions not yet finished
	for i := range state.Checks {
		runners[i] = newCheckRunner(&state.Checks[i], entry, window)
		pending += runners[i].scheduled
	}
	finished := make(chan execResult, len(runners))
	inflight := 0
	var due clock.Timer
	var dueAt time.Time
	var dueC <-chan time.Time
	defer func() {
		if due != nil {
			due.Stop()
		}
	}()
	// schedule starts every execution that is due and arms the timer for
	// the earliest one that is not, keeping the armed timer when that time
	// has not changed (checks that share an interval come due together).
	schedule := func() {
		now := clk.Now()
		var next time.Time
		for i, cr := range runners {
			switch {
			case cr.inflight || cr.started == cr.scheduled:
			case !cr.due.After(now):
				cr.start(stateCtx, i, finished)
				inflight++
			case next.IsZero() || cr.due.Before(next):
				next = cr.due
			}
		}
		if due != nil && !next.Equal(dueAt) {
			due.Stop()
			due, dueC = nil, nil
		}
		if due == nil && !next.IsZero() {
			due, dueAt = clk.NewTimer(next.Sub(now)), next
			dueC = due.C()
		}
	}
	// halt cancels the executions in flight and waits for them. Those that
	// finished regardless are recorded, but the state is already ending,
	// so an interrupt they ask for is not taken.
	halt := func() {
		cancelState()
		for ; inflight > 0; inflight-- {
			res := <-finished
			runners[res.check].record(stateCtx, r, state.ID, res)
		}
	}

	// The state ends when its timer (if it has a duration) has fired and
	// every scheduled execution has finished, so an execution started
	// before the end counts; or earlier, when an exception, burnrate,
	// changepoint or concluding sequential check interrupts, an operator
	// issues a gate decision or pause, or the run is suspended, evicted
	// or aborted.
	schedule()
	timerFired := phaseC == nil
	var intr *interruptMsg
	for intr == nil && !(timerFired && pending == 0) {
		select {
		case <-phaseC:
			timerFired = true
		case <-dueC:
			due, dueC = nil, nil
			schedule()
		case res := <-finished:
			inflight--
			pending--
			if intr = runners[res.check].record(stateCtx, r, state.ID, res); intr == nil {
				schedule()
			}
		case <-r.engine.stopping:
			halt()
			return stepResult{}, errSuspended
		case <-r.evicted:
			halt()
			return stepResult{}, errSuspended
		case msg := <-r.controls:
			switch msg.kind {
			case ctrlResume:
				msg.reply <- ctrlReply{err: ErrNotPaused}
			case ctrlPromote, ctrlRollback:
				target, err := r.manualTarget(state, msg)
				if err != nil {
					msg.reply <- ctrlReply{err: err}
					continue
				}
				halt()
				r.publishGateDecision(state, msg.kind, target)
				msg.reply <- ctrlReply{}
				return stepResult{next: target, cause: msg.kind.String()}, nil
			case ctrlPause:
				halt()
				gen := r.beginPause(state)
				msg.reply <- ctrlReply{gen: gen}
				return r.pausedWait(ctx, state, gen)
			}
		case <-ctx.Done():
			return stepResult{}, ctx.Err()
		}
	}
	halt()

	if intr != nil && intr.target != "" {
		// Exception/burn-rate semantics: jump immediately to the named
		// fallback state. An interrupt without a target (a sequential
		// check concluding early) instead falls through to the normal
		// end-of-state aggregation, just earlier than the timer.
		return stepResult{next: intr.target, cause: intr.cause}, nil
	}

	// Execute end-of-state checks (no timer: run once now), then
	// aggregate the weighted outcome and fire δ. When a sequential check
	// ended the state early, the other outcome-gating statistical checks'
	// schedules were cut short — give each unconcluded one a final fresh
	// execution so the aggregation sees its verdict as of *now* rather
	// than a stale mid-schedule "continue" that would spuriously fail the
	// phase the gate just passed. Interrupt-only kinds (burnrate) are
	// excluded: their interrupt is no longer taken here, so re-executing
	// them could announce a rollback that never happens.
	earlyConcluded := intr != nil
	results := make([]int, len(state.Checks))
	for i, cr := range runners {
		kind := state.Checks[i].Kind
		if state.Checks[i].Interval <= 0 ||
			(earlyConcluded && kind.Statistical() && !kind.InterruptOnly() && !cr.concluded) {
			cr.runOnce(ctx, r, state.ID)
		}
		mapped, err := cr.mappedOutcome()
		if err != nil {
			return stepResult{}, err
		}
		results[i] = mapped
	}

	outcome, err := state.Outcome(results)
	if err != nil {
		return stepResult{}, err
	}
	next, err := state.NextState(outcome)
	if err != nil {
		return stepResult{}, err
	}
	return stepResult{next: next, outcome: outcome}, nil
}

// pausedWait holds the run in the Paused state until an operator resumes it,
// issues a manual gate decision, or aborts the run. gen is the pause
// generation a conditional resume must match.
func (r *Run) pausedWait(ctx context.Context, state *core.State, gen int) (stepResult, error) {
	for {
		select {
		case <-r.engine.stopping:
			return stepResult{}, errSuspended
		case <-r.evicted:
			return stepResult{}, errSuspended
		case msg := <-r.controls:
			switch msg.kind {
			case ctrlPause:
				msg.reply <- ctrlReply{err: ErrAlreadyPaused}
			case ctrlResume:
				if msg.gen > 0 && msg.gen != gen {
					msg.reply <- ctrlReply{err: fmt.Errorf(
						"%w: run is at pause generation %d, resume asked for %d",
						ErrStaleResume, gen, msg.gen)}
					continue
				}
				r.endPause(state, "resumed")
				msg.reply <- ctrlReply{}
				return stepResult{reenter: true}, nil
			case ctrlPromote, ctrlRollback:
				target, err := r.manualTarget(state, msg)
				if err != nil {
					msg.reply <- ctrlReply{err: err}
					continue
				}
				r.endPause(state, msg.kind.String()+" to "+target)
				r.publishGateDecision(state, msg.kind, target)
				msg.reply <- ctrlReply{}
				return stepResult{next: target, cause: msg.kind.String()}, nil
			}
		case <-ctx.Done():
			return stepResult{}, ctx.Err()
		}
	}
}

// manualTarget resolves the successor of a manual gate decision. An explicit
// target must exist in the automaton; without one, promote selects the
// state's highest-outcome successor and rollback its lowest.
func (r *Run) manualTarget(state *core.State, msg controlMsg) (string, error) {
	if msg.target != "" {
		if _, ok := r.strategy.Automaton.State(msg.target); !ok {
			return "", fmt.Errorf("%w: %q", ErrUnknownState, msg.target)
		}
		return msg.target, nil
	}
	if len(state.Transitions) == 0 {
		return "", fmt.Errorf("%w: state %q has no successors; pass an explicit target",
			ErrUnknownState, state.ID)
	}
	if msg.kind == ctrlPromote {
		return state.Transitions[len(state.Transitions)-1], nil
	}
	return state.Transitions[0], nil
}

func (r *Run) beginPause(state *core.State) int {
	r.pauseGen++
	r.publish(Event{
		Type: EventPaused, State: state.ID, PauseGen: r.pauseGen,
		Detail: fmt.Sprintf("pause generation %d", r.pauseGen), Time: r.engine.clk.Now(),
	})
	return r.pauseGen
}

func (r *Run) endPause(state *core.State, detail string) {
	r.publish(Event{
		Type: EventResumed, State: state.ID,
		Detail: detail, Time: r.engine.clk.Now(),
	})
}

func (r *Run) publishGateDecision(state *core.State, kind controlKind, target string) {
	r.publish(Event{
		Type: EventGateDecision, State: state.ID, Cause: kind.String(),
		Detail: kind.String() + " to " + target, Time: r.engine.clk.Now(),
	})
}

// reconcileLoop is the run's anti-entropy loop: every reconcile interval
// it polls the run's targets for convergence (the proxy fleet re-pushes
// the current generation to lagging or restarted replicas) and publishes a
// routing_converged or routing_degraded event for every service whose
// convergence changed — through the same pipeline as every other event, so
// they reach the journal, Status.Fleet, SSE watchers, and the CLI.
func (r *Run) reconcileLoop(ctx context.Context) {
	t := r.engine.clk.NewTicker(r.targets.reconcileInterval())
	defer t.Stop()
	// Seed from the run's reduced fleet status: a recovered run whose
	// journal ends on routing_degraded must emit routing_converged when the
	// first post-restart pass finds the fleet healed.
	last := make(map[string]convergence, 2)
	for _, f := range r.Status().Fleet {
		last[f.Service] = convergenceOf(f)
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.engine.stopping:
			return
		case <-r.evicted:
			return
		case <-t.C():
		}
		reports := r.targets.convergence(ctx)
		if ctx.Err() != nil {
			// The run just finished or was aborted: a pass against
			// cancelled contexts sees every replica unreachable and must
			// not publish a parting routing_degraded.
			return
		}
		for _, rep := range reports {
			c := convergenceOf(rep)
			if last[rep.Service] == c {
				continue
			}
			// The pass filtered reports against the desired generation,
			// but a state transition can land between that filter and
			// here; the target's gate re-checks under its lock so a
			// superseded report is dropped instead of published. The
			// skipped `last` update leaves the next pass to evaluate the
			// current generation from scratch.
			if r.targets.withCurrent(rep.Service, rep.Generation, func() {
				r.publishFleetEvent(rep, "")
			}) {
				last[rep.Service] = c
			}
		}
	}
}

// convergence is what a fleet event reports of a service: a change in any
// field is published. lagging fingerprints the lagging replica set, so the
// same generation staying degraded with a different replica down is
// published too, or the journal keeps naming the wrong replica.
type convergence struct {
	gen       int64
	converged bool
	lagging   string
}

func convergenceOf(f FleetStatus) convergence {
	return convergence{gen: f.Generation, converged: f.Converged, lagging: strings.Join(f.Lagging, ",")}
}

// finalFleetCheck runs one last anti-entropy pass as the run ends, while
// the desired configs still exist: a reachable replica that missed the
// final state's push (the quorum was satisfied without it) is repaired
// here, and a fleet that still ends degraded is journaled as such right
// before the terminal record — after this the reconciler is gone, so a
// replica that stayed down keeps its last-acked routing until an operator
// re-pushes or the next strategy reconfigures the service.
func (r *Run) finalFleetCheck() {
	// The budget is derived from the configured push timeout (one pass's
	// worst case), so a larger -push-timeout cannot starve the pass into
	// the expired-context guard below.
	ctx, cancel := context.WithTimeout(context.Background(), r.targets.passBudget())
	defer cancel()
	reports := r.targets.convergence(ctx)
	if len(reports) == 0 || ctx.Err() != nil {
		// Same hazard reconcileLoop guards: a pass cut short by its
		// deadline sees the unpolled replicas as unreachable and must not
		// journal a false parting routing_degraded over healthy ones.
		return
	}
	last := make(map[string]convergence, len(reports))
	for _, f := range r.Status().Fleet {
		last[f.Service] = convergenceOf(f)
	}
	for _, rep := range reports {
		// A fleet this pass healed or moved to the final generation is
		// published, so the finished run's status (and a restarted
		// engine's) shows what the replicas hold; one still degraded is
		// published as such. The supersede guard is reconcileLoop's: the
		// run loop is done, but a concurrent Remove + re-enact of the
		// strategy name could have replaced the desired state this report
		// describes.
		suffix := " as the run ends"
		if rep.Converged {
			if last[rep.Service] == convergenceOf(rep) {
				continue
			}
			suffix = ""
		}
		r.targets.withCurrent(rep.Service, rep.Generation, func() {
			r.publishFleetEvent(rep, suffix)
		})
	}
}

// publishFleetEvent emits one fleet convergence event for rep:
// routing_converged when the fleet is whole, routing_degraded (with the
// lagging replicas) otherwise. detailSuffix qualifies the degraded text
// (e.g. " as the run ends").
func (r *Run) publishFleetEvent(rep FleetStatus, detailSuffix string) {
	ev := Event{
		State: r.Status().Current, Service: rep.Service,
		Generation: rep.Generation, Replicas: rep.Replicas, Acked: rep.Acked,
		Time: r.engine.clk.Now(),
	}
	if rep.Converged {
		ev.Type = EventRoutingConverged
		ev.Detail = fmt.Sprintf("%s: all %d replicas at generation %d",
			rep.Service, rep.Replicas, rep.Generation)
	} else {
		ev.Type = EventRoutingDegraded
		ev.Lagging = append([]string(nil), rep.Lagging...)
		ev.Detail = fmt.Sprintf("%s: %d/%d replicas at generation %d%s (lagging: %s)",
			rep.Service, rep.Acked, rep.Replicas, rep.Generation, detailSuffix,
			strings.Join(rep.Lagging, ", "))
	}
	r.publish(ev)
}

// statePlannedDuration is the specified execution time of a state: its
// explicit duration, or the longest check schedule.
func statePlannedDuration(state *core.State) time.Duration {
	if state.Duration > 0 {
		return state.Duration
	}
	var max time.Duration
	for i := range state.Checks {
		if d := state.Checks[i].TotalDuration(); d > max {
			max = d
		}
	}
	return max
}
