package engine

import (
	"cmp"
	"slices"
	"time"

	"bifrost/internal/core"
)

// maxMirrorEvents bounds the per-run durable event history kept in memory
// (and in journal snapshots). Older events are trimmed; DroppedBefore
// records the trim point so SSE resume can report an explicit gap instead
// of silently skipping.
const maxMirrorEvents = 1024

// maxFinishedEvents is the smaller history tail kept once a run finishes:
// finished runs linger until Remove, and a long-lived engine enacting many
// short strategies must not accumulate a kilobuffer per run forever.
const maxFinishedEvents = 256

// runMirror is the journal's view of one run, reduced purely from the event
// stream. It is maintained incrementally on every publish and rebuilt by
// replaying the journal on recovery — the same reduction both times, so
// what the engine snapshots is exactly what a restart reconstructs.
type runMirror struct {
	// Source is the strategy's DSL source, recorded at schedule time;
	// recovery recompiles it. Empty for strategies enacted programmatically
	// (those cannot be resumed after a restart).
	Source string `json:"source,omitempty"`
	// Status is the run status as reduced from events: what Run.Status
	// returns, live and after a restart alike.
	Status Status `json:"status"`
	// Events is the bounded per-run history, oldest first.
	Events []Event `json:"events,omitempty"`
	// DroppedBefore is the seq of the newest trimmed-away event (0: none).
	DroppedBefore int64 `json:"droppedBefore,omitempty"`

	// NoBookState names a state whose next state_entered must not book its
	// planned duration again: the entry re-enters a state that was already
	// booked (resume after pause, recovery after restart). A gate decision
	// issued from a pause enters a *different* state, which books normally.
	// Persisted: a snapshot can land between the resumed/recovered event
	// and the re-entry.
	NoBookState string `json:"noBookState,omitempty"`
	// Reenter marks the next state_entered as a recovery re-entry of the
	// current state: EnteredAt is then backdated by ResumeElapsed — the
	// elapsed time the recovered event preserved — so a second restart
	// still sees the cumulative elapsed-in-state (downtime excluded each
	// time).
	Reenter       bool          `json:"reenter,omitempty"`
	ResumeElapsed time.Duration `json:"resumeElapsed,omitempty"`
	// PriorActive and ResumedAt anchor delay accounting across restarts:
	// the run had accumulated PriorActive of active wall time when its
	// current life began at ResumedAt. Zero ResumedAt means the first
	// life, anchored at Status.StartedAt.
	PriorActive time.Duration `json:"priorActive,omitempty"`
	ResumedAt   time.Time     `json:"resumedAt,omitempty"`
}

// engineMirror is the reduced journal state across runs: the payload of
// snapshot compaction and the backing store of per-run event history.
type engineMirror struct {
	// LastTime is the timestamp of the newest reduced event — the best
	// available "crash time" when recovering from this state, used to
	// compute elapsed-in-state without counting downtime.
	LastTime time.Time `json:"lastTime,omitempty"`
	// Generation is the engine's routing-generation counter at snapshot
	// time; recovery restores it so re-applied configs outrank the ones
	// surviving proxies already hold.
	Generation int64                 `json:"generation,omitempty"`
	Runs       map[string]*runMirror `json:"runs"`
}

func newEngineMirror() *engineMirror {
	return &engineMirror{Runs: make(map[string]*runMirror, 8)}
}

func (m *engineMirror) run(name string) *runMirror {
	rm, ok := m.Runs[name]
	if !ok {
		rm = &runMirror{Status: Status{Strategy: name, State: RunPending}}
		m.Runs[name] = rm
	}
	return rm
}

// setSource records the DSL source of a scheduled strategy. It is applied
// right after the scheduled event's reduction, which started a fresh mirror.
func (m *engineMirror) setSource(name, source string) {
	m.run(name).Source = source
}

// terminal reports whether a run state is final.
func (s RunState) terminal() bool {
	return s == RunCompleted || s == RunAborted || s == RunFailed
}

// apply reduces one event into the mirror. strategy may be nil (planned
// duration booking is then skipped); it is needed only for state_entered.
func (m *engineMirror) apply(strategy *core.Strategy, ev Event) {
	if ev.Time.After(m.LastTime) {
		m.LastTime = ev.Time
	}
	if ev.Type == EventRemoved {
		// The run was forgotten; its reduction (and history) goes with it.
		delete(m.Runs, ev.Strategy)
		return
	}
	var rm *runMirror
	if ev.Type == EventScheduled {
		// Every schedule starts a fresh enactment: replace any previous
		// reduction under this name, finished or not (a run Recover had to
		// skip leaves a non-terminal mirror behind; its history must not
		// merge into the replacement). The replacement is a new allocation,
		// so a Run still holding the old reduction keeps its status. The
		// source record that follows the scheduled event re-establishes
		// Source.
		rm = &runMirror{Status: Status{Strategy: ev.Strategy, State: RunPending, StartedAt: ev.Time}}
		m.Runs[ev.Strategy] = rm
	} else {
		rm = m.run(ev.Strategy)
	}
	st := &rm.Status

	switch ev.Type {
	case EventStateEntered:
		// A recovery re-entry of a paused run stays paused (the restored
		// pause was re-asserted just before); every other entry runs.
		if !(rm.Reenter && st.State == RunPaused) {
			st.State = RunRunning
		}
		st.Current = ev.State
		st.EnteredAt = ev.Time
		if rm.Reenter {
			st.EnteredAt = ev.Time.Add(-rm.ResumeElapsed)
			rm.Reenter, rm.ResumeElapsed = false, 0
		}
		skipBook := rm.NoBookState != "" && rm.NoBookState == ev.State
		rm.NoBookState = ""
		if strategy == nil {
			// The state's checks are unknown: check_executed events add
			// them by name.
			st.Checks = st.Checks[:0]
			break
		}
		state, ok := strategy.Automaton.State(ev.State)
		if !ok {
			break
		}
		if !skipBook && !strategy.Automaton.IsFinal(ev.State) {
			// Final states are never executed (the loop finishes on entry),
			// so they are not booked.
			st.PlannedNanos += int64(statePlannedDuration(state))
		}
		if len(state.Checks) > 0 {
			// Every entry, re-entries included, starts the state's checks
			// from zero, as the loop's runners do. A state without checks
			// keeps the previous state's results visible.
			st.Checks = st.Checks[:0]
			for i := range state.Checks {
				c := &state.Checks[i]
				st.Checks = append(st.Checks, CheckStatus{Name: c.Name, Kind: c.Kind.String()})
			}
		}
	case EventCheckExecuted:
		st.checkExecuted(ev)
	case EventPaused:
		st.State = RunPaused
		if ev.PauseGen > 0 {
			st.PauseGen = ev.PauseGen
		} else {
			st.PauseGen++
		}
	case EventResumed:
		// A pause/resume re-entry restarts the phase in full (checks and
		// state timer reset), so EnteredAt is not backdated here.
		st.State = RunRunning
		rm.NoBookState = ev.State
	case EventRecovered:
		st.Recovered = true
		rm.PriorActive = ev.Active
		rm.ResumedAt = ev.Time
		// Only an actual re-entry skips booking and backdates; a run that
		// crashed before entering any state starts its first state fresh.
		if st.Current != "" && ev.State == st.Current {
			rm.NoBookState = ev.State
			rm.Reenter = true
			rm.ResumeElapsed = ev.Elapsed
			// Re-anchor immediately, not just at the re-entry: a crash
			// between this event and state_entered (a crash loop during
			// Apply) must not count the downtime as in-state time.
			st.EnteredAt = ev.Time.Add(-ev.Elapsed)
		}
	case EventRoutingConverged, EventRoutingDegraded:
		// The reconciler publishes every change of a service's convergence,
		// so this entry is its last report, sorted by service for stable
		// rendering.
		fs := FleetStatus{
			Service: ev.Service, Generation: ev.Generation,
			Replicas: ev.Replicas, Acked: ev.Acked,
			Lagging:   append([]string(nil), ev.Lagging...),
			Converged: ev.Type == EventRoutingConverged,
		}
		i, found := slices.BinarySearchFunc(st.Fleet, ev.Service, func(f FleetStatus, service string) int {
			return cmp.Compare(f.Service, service)
		})
		if found {
			st.Fleet[i] = fs
		} else {
			st.Fleet = slices.Insert(st.Fleet, i, fs)
		}
	case EventChildScheduled, EventChildUpdate, EventChildTerminal:
		// Reduce the parent's view of its sub-rollout children so recovery
		// rebuilds the region tree — and the re-link seed — for free.
		cs := ChildStatus{
			Name: ev.Child, Region: ev.Region,
			State: ev.ChildState, Phase: ev.ChildPhase,
		}
		if ev.Type == EventChildTerminal {
			cs.Passed = ev.Outcome == 1
			cs.Failed = !cs.Passed
		}
		replaced := false
		for i := range st.Children {
			if st.Children[i].Name == ev.Child {
				st.Children[i] = cs
				replaced = true
				break
			}
		}
		if !replaced {
			st.Children = append(st.Children, cs)
		}
	case EventTransition:
		st.Path = append(st.Path, Transition{
			From: ev.State, To: ev.Detail, Outcome: ev.Outcome,
			At: ev.Time, Cause: ev.Cause,
		})
	case EventCompleted:
		st.State = RunCompleted
		rm.finish(ev.Time)
	case EventAborted:
		st.State = RunAborted
		rm.finish(ev.Time)
	case EventError:
		st.State = RunFailed
		st.Error = ev.Detail
		rm.finish(ev.Time)
	}

	rm.Events = append(rm.Events, ev)
	limit := maxMirrorEvents
	if st.State.terminal() {
		limit = maxFinishedEvents
	}
	if len(rm.Events) > limit {
		// Trim a quarter past the limit at once so the copy amortizes to
		// O(1) per event instead of an O(limit) memmove on every publish
		// of a capped run (this runs under pubMu, the engine-wide publish
		// pipeline).
		keep := limit - limit/4
		cut := len(rm.Events) - keep
		rm.DroppedBefore = rm.Events[cut-1].Seq
		rm.Events = append(rm.Events[:0], rm.Events[cut:]...)
	}
}

// finish records the run's end at t and its active wall time: what
// earlier lives accumulated, plus this life from its start (the recovered
// event, or the scheduled one on the first life). Downtime between lives
// never counts.
func (rm *runMirror) finish(t time.Time) {
	anchor := rm.ResumedAt
	if anchor.IsZero() {
		anchor = rm.Status.StartedAt
	}
	rm.Status.FinishedAt = t
	rm.Status.ActualNanos = int64(rm.PriorActive + t.Sub(anchor))
}

// checkExecuted folds one execution into its check's entry, adding the
// entry when the strategy did not declare it (no strategy at hand). It
// mutates in place: steady-state publishing allocates nothing here.
func (st *Status) checkExecuted(ev Event) {
	i := slices.IndexFunc(st.Checks, func(c CheckStatus) bool { return c.Name == ev.Check })
	if i < 0 {
		i = len(st.Checks)
		st.Checks = append(st.Checks, CheckStatus{Name: ev.Check})
	}
	c := &st.Checks[i]
	c.Executions++
	if v := ev.Verdict; v != nil {
		switch v.Decision {
		case core.DecisionPass:
			c.Successes++
		case core.DecisionFail:
			c.Failures++
		default:
			c.Inconclusive++
		}
		if v.Err != "" {
			c.LastError = v.Err
		}
		c.Verdict = v
		return
	}
	if ev.Outcome == 1 {
		c.Successes++
	} else {
		c.Failures++
	}
	if ev.Detail != "" {
		c.LastError = ev.Detail
	}
}

// clone deep-copies the status: fresh slices (shared Verdict pointers are
// safe, they are never mutated after publish).
func (s Status) clone() Status {
	s.Path = slices.Clone(s.Path)
	s.Checks = slices.Clone(s.Checks)
	s.Fleet = slices.Clone(s.Fleet)
	s.Children = slices.Clone(s.Children)
	return s
}

// clone deep-copies one run's reduction so snapshot marshaling can happen
// outside pubMu.
func (rm *runMirror) clone() *runMirror {
	cp := *rm
	cp.Events = slices.Clone(rm.Events)
	cp.Status = rm.Status.clone()
	return &cp
}

// cloneRun deep-copies a single run's reduction into a standalone mirror —
// the snapshot payload of that run's journal partition. Nil if the run has
// no reduction (already removed).
func (m *engineMirror) cloneRun(name string) *engineMirror {
	rm, ok := m.Runs[name]
	if !ok {
		return nil
	}
	return &engineMirror{
		LastTime:   m.LastTime,
		Generation: m.Generation,
		Runs:       map[string]*runMirror{name: rm.clone()},
	}
}

// events returns up to n of a run's retained events, oldest first (n <= 0:
// all of them).
func (m *engineMirror) events(name string, n int) []Event {
	rm, ok := m.Runs[name]
	if !ok {
		return nil
	}
	evs := rm.Events
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return append([]Event(nil), evs...)
}

// eventsSince returns a run's retained events with Seq > afterSeq, oldest
// first, and whether events in that range were already trimmed.
func (m *engineMirror) eventsSince(name string, afterSeq int64) ([]Event, bool) {
	rm, ok := m.Runs[name]
	if !ok {
		return nil, false
	}
	var out []Event
	for _, ev := range rm.Events {
		if ev.Seq > afterSeq {
			out = append(out, ev)
		}
	}
	return out, afterSeq < rm.DroppedBefore
}
