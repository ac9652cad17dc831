package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/journal"
)

// RecoveryReport summarizes what Recover found in the journal.
type RecoveryReport struct {
	// Resumed are the unfinished runs whose loops are executing again.
	Resumed []*Run
	// Finished counts runs the journal shows as already terminal; they are
	// registered (visible to the API with their durable history) but not
	// resumed — replaying a finished run must never re-fire its side
	// effects.
	Finished int
	// Skipped maps unfinished-but-unrecoverable runs to the reason (no
	// DSL source journaled, or the source no longer compiles).
	Skipped map[string]string
}

// RunRecovery reports the outcome of recovering one run's partition.
type RunRecovery struct {
	// Run is the registered run: resumed if the partition showed it
	// unfinished, terminal history otherwise. Nil when the partition was
	// empty or the run could not be recovered (see SkipReason).
	Run *Run
	// Resumed reports that the run's loop is executing again.
	Resumed bool
	// SkipReason is non-empty when the run is unfinished but cannot be
	// resumed (no journaled source, or the source no longer compiles).
	SkipReason string
}

// recovered carries a resumed run's journal-derived position into its loop.
type recovered struct {
	// current is the automaton state to re-enter ("" restarts from the
	// automaton's start state: the run was scheduled but never entered one).
	current string
	// elapsed is how long the run had already spent in current before the
	// crash (downtime excluded); the state timer resumes from here instead
	// of restarting the phase.
	elapsed time.Duration
	// paused restores a paused run into its paused wait, at the run's
	// restored pause generation.
	paused bool
}

// Recover replays every journal partition and resumes every unfinished run:
// same automaton state, elapsed-in-state preserved, pause generation and
// path intact, and the last routing configuration re-applied through the
// run's enactment targets (proxies may have restarted too). It must be
// called once, after New and before any Enact. compile recompiles the
// journaled strategy sources (cmd wiring passes dsl.Compile). Clustered
// engines adopt runs one at a time through RecoverRun instead, as their
// leases are claimed.
func (e *Engine) Recover(compile CompileFunc) (*RecoveryReport, error) {
	if e.journals == nil {
		return nil, errors.New("engine: Recover requires WithJournalSet")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if len(e.runs) > 0 {
		e.mu.Unlock()
		return nil, errors.New("engine: Recover must run before strategies are enacted")
	}
	e.mu.Unlock()

	names, err := e.journals.List()
	if err != nil {
		return nil, err
	}
	report := &RecoveryReport{Skipped: make(map[string]string)}
	var ring []Event
	var parts []*partitionReplay
	for _, name := range names {
		part, err := e.replayPartition(name, compile, e.fenceFor(name))
		if err != nil {
			report.Skipped[name] = err.Error()
			continue
		}
		if part == nil {
			continue // empty partition: nothing ever flushed
		}
		ring = append(ring, part.events...)
		parts = append(parts, part)
	}
	// Rebuild the global replay ring in sequence order, before any resumed
	// run publishes past it: the partitions were replayed one after
	// another, but their events interleave globally.
	sort.Slice(ring, func(a, b int) bool { return ring[a].Seq < ring[b].Seq })
	for _, ev := range ring {
		e.bus.restore(ev)
	}
	// Resume hierarchical parents only after every other partition: a
	// parent's loop re-schedules its sub-rollout children on resume, and
	// that must find the children already registered from their own
	// partitions (a no-op re-link), not race their replay with a fresh
	// enactment that would reset them.
	sort.SliceStable(parts, func(a, b int) bool {
		return !strategyHasSub(parts[a].strategy) && strategyHasSub(parts[b].strategy)
	})
	for _, part := range parts {
		rr, err := e.resumePartition(part)
		if err != nil {
			return report, err
		}
		switch {
		case rr.SkipReason != "":
			report.Skipped[part.name] = rr.SkipReason
		case rr.Resumed:
			report.Resumed = append(report.Resumed, rr.Run)
		default:
			report.Finished++
		}
	}
	return report, nil
}

// RecoverRun adopts a single run from its journal partition at runtime: the
// HA path a replica takes after claiming the run's lease (its own at
// startup, or a dead replica's after the TTL). The partition is opened
// under the lease's fencing token — registering the new ownership epoch
// before a single record is read, so the previous owner's zombie appends
// are rejected from that point on — then replayed through the exact
// crash-recovery reduction, and the run resumes in-phase with downtime
// excluded. Unlike Recover it may be called at any point in the engine's
// life, concurrently with live runs.
func (e *Engine) RecoverRun(name string, compile CompileFunc, token int64) (*RunRecovery, error) {
	if e.journals == nil {
		return nil, errors.New("engine: RecoverRun requires WithJournalSet")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if _, exists := e.runs[name]; exists {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrAlreadyRunning, name)
	}
	e.mu.Unlock()

	part, err := e.replayPartition(name, compile, token)
	if err != nil {
		return nil, err
	}
	if part == nil {
		return &RunRecovery{}, nil
	}
	return e.resumePartition(part)
}

// partitionReplay is one partition's replayed state, ready to resume.
type partitionReplay struct {
	name string
	// rm is the replayed reduction, installed in the engine mirror: the
	// resumed run's status. Only that run's events change it, so it is
	// read here without pubMu until the run is registered.
	rm       *runMirror
	strategy *core.Strategy
	lastTime time.Time
	events   []Event // post-snapshot events, for global ring restore
}

// replayPartition opens run name's partition under the given fencing token,
// replays snapshot plus records into the engine mirror, and fast-forwards
// the event sequence past everything replayed. Returns nil when the
// partition holds no reduction for the run (nothing was ever flushed).
func (e *Engine) replayPartition(name string, compile CompileFunc, token int64) (*partitionReplay, error) {
	j, err := e.journals.Partition(name, token)
	if err != nil {
		return nil, err
	}

	e.pubMu.Lock()
	defer e.pubMu.Unlock()

	part := newEngineMirror()
	snap, snapSeq := j.Snapshot()
	if snap != nil {
		if err := json.Unmarshal(snap, part); err != nil {
			return nil, fmt.Errorf("engine: corrupt snapshot for %s: %w", name, err)
		}
		if part.Runs == nil {
			part.Runs = make(map[string]*runMirror, 1)
		}
	}

	// The strategy recompiles lazily, re-triggered when a newer source
	// record lands mid-replay; nil means unrecoverable.
	var strategy *core.Strategy
	compiled := false
	compileFor := func() *core.Strategy {
		if compiled {
			return strategy
		}
		compiled = true
		if rm, ok := part.Runs[name]; ok && rm.Source != "" && compile != nil {
			if cs, err := compile(rm.Source); err == nil {
				strategy = cs
			}
		}
		return strategy
	}

	maxSeq := snapSeq
	maxGen := part.Generation
	var events []Event
	err = j.Replay(func(rec journal.Record) error {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		switch rec.Type {
		case recHeartbeat:
			// Heartbeats share the newest event's seq, so they may sit on
			// (or behind) the snapshot boundary and are always applied:
			// they only push the crash-time estimate forward.
			if rec.Time.After(part.LastTime) {
				part.LastTime = rec.Time
			}
		case recSource:
			if rec.Seq <= snapSeq {
				return nil // already reduced into the snapshot
			}
			var sr sourceRecord
			if json.Unmarshal(rec.Data, &sr) == nil {
				part.setSource(name, sr.Source)
				compiled = false // compile against the new source
			}
		case recEvent:
			if rec.Seq <= snapSeq {
				return nil // already reduced into the snapshot
			}
			var ev Event
			if json.Unmarshal(rec.Data, &ev) != nil {
				return nil // tolerate unknown/garbled records, like a torn tail
			}
			part.apply(compileFor(), ev)
			events = append(events, ev)
			if ev.Generation > maxGen {
				maxGen = ev.Generation
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rm, ok := part.Runs[name]
	if !ok {
		return nil, nil
	}
	compileFor() // terminal runs too: Run.Strategy() should work on history

	// Retained history may hold routing generations newer than the
	// snapshot counter (snapshot counters only advance at compaction).
	for _, ev := range rm.Events {
		if ev.Generation > maxGen {
			maxGen = ev.Generation
		}
	}
	if maxGen > e.generation.Load() {
		e.generation.Store(maxGen)
	}
	// New events continue past everything this partition had journaled, so
	// a watcher's Last-Event-ID from the previous owner stays behind (or
	// at) the adopted numbering — never ahead of it.
	e.bus.setSeq(maxSeq)

	e.mirror.Runs[name] = rm
	if part.LastTime.After(e.mirror.LastTime) {
		e.mirror.LastTime = part.LastTime
	}
	return &partitionReplay{
		name:     name,
		rm:       rm,
		strategy: strategy,
		lastTime: part.LastTime,
		events:   events,
	}, nil
}

// resumePartition registers a replayed run: terminal runs as history,
// unfinished ones resumed in-phase with elapsed-in-state preserved and
// downtime excluded (lastTime — the partition's newest record or heartbeat
// — is the best available crash-time estimate).
func (e *Engine) resumePartition(part *partitionReplay) (*RunRecovery, error) {
	st := &part.rm.Status
	if st.State.terminal() {
		r := newFinishedRun(e, part.strategy, part.rm)
		if !e.registerRun(part.name, r) {
			return nil, ErrEngineClosed
		}
		return &RunRecovery{Run: r}, nil
	}
	if part.strategy == nil {
		reason := "no strategy source journaled (enacted programmatically)"
		if part.rm.Source != "" {
			reason = "journaled strategy source no longer compiles"
		}
		return &RunRecovery{SkipReason: reason}, nil
	}
	var elapsed time.Duration
	if !st.EnteredAt.IsZero() && part.lastTime.After(st.EnteredAt) {
		elapsed = part.lastTime.Sub(st.EnteredAt)
	}
	// Active wall time accumulates per life: everything before the
	// last recovery is in PriorActive, plus this life's span up to the
	// newest record — inter-restart downtime never counts.
	anchor, prior := st.StartedAt, time.Duration(0)
	if !part.rm.ResumedAt.IsZero() {
		anchor, prior = part.rm.ResumedAt, part.rm.PriorActive
	}
	if !anchor.IsZero() && part.lastTime.After(anchor) {
		prior += part.lastTime.Sub(anchor)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		engine:           e,
		strategy:         part.strategy,
		cancel:           cancel,
		done:             make(chan struct{}),
		evicted:          make(chan struct{}),
		controls:         make(chan controlMsg),
		mirror:           part.rm,
		pauseGen:         st.PauseGen,
		recoveredRouting: effectiveRouting(part.strategy, st.Path, st.Current),
		recov: &recovered{
			current: st.Current,
			elapsed: elapsed,
			paused:  st.State == RunPaused,
		},
	}
	// The recovery is published before the run is registered, so its
	// status shows it from the first read on: recovered, with EnteredAt
	// rebased so the downtime never counts as time in the phase.
	current := st.Current
	if current == "" {
		current = part.strategy.Automaton.Start
	}
	r.publish(Event{
		Type: EventRecovered, State: current, Elapsed: elapsed, Active: prior,
		Detail: fmt.Sprintf("resumed after restart (%s elapsed in state)",
			elapsed.Round(time.Millisecond)),
		Time: e.clk.Now(),
	})
	if r.recov.paused {
		// Re-assert the pause before re-entering the state: if the engine
		// dies again mid-re-entry (Apply calls proxies that may be down
		// right after an outage), the journal's last word must still be
		// "paused" — an operator's hold is never silently released by a
		// crash loop.
		r.publish(Event{
			Type: EventPaused, State: current, PauseGen: r.pauseGen,
			Detail: fmt.Sprintf("pause generation %d (restored after restart)", r.pauseGen),
			Time:   e.clk.Now(),
		})
	}
	if !e.registerRun(part.name, r) {
		cancel()
		return nil, ErrEngineClosed
	}
	e.mRecovered.Inc()
	e.mActive.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.mActive.Add(-1)
		r.loop(ctx)
	}()
	return &RunRecovery{Run: r, Resumed: true}, nil
}

// strategyHasSub reports whether any state nests a sub-rollout (the
// strategy is a hierarchical parent).
func strategyHasSub(s *core.Strategy) bool {
	if s == nil {
		return false
	}
	for i := range s.Automaton.States {
		if s.Automaton.States[i].Sub != nil {
			return true
		}
	}
	return false
}

// effectiveRouting returns the routing configurations in force when the
// run sat in current after taking path: for each service, the config of
// the latest visited state that declared one. Routing persists across
// states that declare none, so recovery must re-apply these — the state
// being re-entered may not mention the services at all.
func effectiveRouting(s *core.Strategy, path []Transition, current string) []core.RoutingConfig {
	if s == nil || current == "" {
		return nil
	}
	visited := make([]string, 0, len(path)+1)
	for _, tr := range path {
		visited = append(visited, tr.From)
	}
	visited = append(visited, current)
	var out []core.RoutingConfig
	seen := make(map[string]bool, 2)
	for i := len(visited) - 1; i >= 0; i-- {
		st, ok := s.Automaton.State(visited[i])
		if !ok {
			continue
		}
		// Within a state too, the last declared config per service wins:
		// enterState applies them in order and later pushes carry higher
		// generations, so walking backwards keeps what was live.
		for j := len(st.Routing) - 1; j >= 0; j-- {
			rc := st.Routing[j]
			if !seen[rc.Service] {
				seen[rc.Service] = true
				out = append(out, rc)
			}
		}
	}
	return out
}

// registerRun inserts a run into the registry; for live runs the waitgroup
// slot is taken under e.mu so Shutdown cannot miss it. Reports false once
// the engine closed.
func (e *Engine) registerRun(name string, r *Run) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.runs[name] = r
	if !r.Done() {
		e.wg.Add(1)
	}
	return true
}

// newFinishedRun materializes a terminal run from its journal reduction so
// a restarted engine still lists it and serves its history. It has no loop;
// every control is rejected with ErrFinished.
func newFinishedRun(e *Engine, s *core.Strategy, rm *runMirror) *Run {
	done := make(chan struct{})
	close(done)
	return &Run{
		engine:   e,
		strategy: s,
		cancel:   func() {},
		done:     done,
		evicted:  make(chan struct{}),
		controls: make(chan controlMsg),
		mirror:   rm,
	}
}
