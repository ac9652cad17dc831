// Package engine implements the Bifrost engine: the control plane that
// enacts release strategies (paper §4.1).
//
// The engine "executes the state machine of the formal release model": for
// every enacted strategy it walks the automaton, runs each state's checks
// on their timers, aggregates weighted outcomes, fires the transition
// function δ, and reconfigures the affected Bifrost proxies whenever a
// state change happens. Many strategies run in parallel — the paper's
// scalability evaluation (§5.2) drives exactly this code path.
//
// Statistical checks carry a typed core.Verdict through the same
// machinery: verdicts surface in run status and engine events, a
// concluding sequential gate or a tripped burn-rate guard interrupts the
// state ahead of its timer (check.go), and operators can pause, resume,
// or override any gate manually (run.go).
//
// Runs are exposed as lifecycle resources by the REST API v2 (api.go):
// schedule with dry-run analysis, pause/resume with generation-checked
// resumes, manual promote/rollback, per-run event history, and a live
// Server-Sent-Events stream shared by the CLI and the dashboard.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/core"
	"bifrost/internal/journal"
	"bifrost/internal/metrics"
	"bifrost/internal/target"
)

// Common engine errors. The API layer maps each to a machine-readable
// problem+json code, so clients dispatch on these rather than on message
// strings.
var (
	// ErrAlreadyRunning is returned by Enact when a strategy with the
	// same name is currently executing.
	ErrAlreadyRunning = errors.New("engine: strategy already running")
	// ErrNotFound is returned when referencing an unknown strategy.
	ErrNotFound = errors.New("engine: strategy not found")
	// ErrFinished is returned by operator controls on a finished run.
	ErrFinished = errors.New("engine: run already finished")
	// ErrNotPaused is returned by Resume when the run is not paused.
	ErrNotPaused = errors.New("engine: run is not paused")
	// ErrAlreadyPaused is returned by Pause on an already-paused run.
	ErrAlreadyPaused = errors.New("engine: run already paused")
	// ErrStaleResume is returned when a resume carries a pause generation
	// that is no longer current (another pause/resume cycle intervened).
	ErrStaleResume = errors.New("engine: stale resume")
	// ErrUnknownState is returned when a manual gate decision names a state
	// outside the strategy's automaton (or none can be inferred).
	ErrUnknownState = errors.New("engine: unknown automaton state")
	// ErrEngineClosed is returned by Enact once Shutdown or Suspend began.
	ErrEngineClosed = errors.New("engine: shut down")
)

// errSuspended is the run loop's internal signal that the engine is
// suspending: the loop exits without a terminal record so the journal still
// shows the run mid-state and a restart resumes it.
var errSuspended = errors.New("engine: suspended")

// Engine enacts release strategies. Create with New; Shutdown aborts every
// run and waits for the run loops to exit, while Suspend stops them without
// terminal records so a journal-backed restart resumes them.
type Engine struct {
	clk      clock.Clock
	registry *metrics.Registry
	// targets maps each service's `target:` kind to the backend that
	// enacts its routing; runs resolve their services against it.
	targets  *target.Registry
	bus      *eventBus
	ringSize int

	mu     sync.Mutex
	runs   map[string]*Run
	closed bool
	// stopping is closed by Suspend; run loops exit without terminal
	// records when they observe it.
	stopping chan struct{}
	// hbQuit stops the journal heartbeat goroutine (nil without journal).
	hbQuit chan struct{}

	// pubMu serializes the publish pipeline: sequence assignment, mirror
	// reduction, journal enqueue, and bus fan-out happen atomically with
	// respect to each other, so snapshots taken under pubMu are consistent
	// with a journal position.
	pubMu      sync.Mutex
	mirror     *engineMirror
	journals   *journal.Set
	compacting atomic.Bool
	// jw appends every journal record (nil without a journal).
	jw *journalWriter

	// hbEvery paces heartbeat records on journaled engines.
	hbEvery time.Duration
	// fence supplies the fencing token for a run's journal partition (HA
	// mode: the cluster layer maps runs to its held lease tokens). Nil
	// means classic flock protection.
	fence func(run string) int64
	// enactGate, when set, must succeed before a new enactment registers
	// (the cluster layer acquires the run's lease here).
	enactGate func(run string) error
	// children schedules and observes sub-rollout child runs (hierarchical
	// rollouts). Defaults to in-process enactment.
	children ChildRunner

	generation atomic.Int64
	wg         sync.WaitGroup

	mActive      *metrics.Gauge
	mEnacted     *metrics.Counter
	mTransitions *metrics.Counter
	mChecks      *metrics.Counter
	mJournaled   *metrics.Counter
	mCompactions *metrics.Counter
	mRecovered   *metrics.Counter
	mFenced      *metrics.Counter
}

// Option configures an Engine.
type Option func(*Engine)

// WithClock injects the clock driving timers (tests use clock.Manual).
func WithClock(c clock.Clock) Option {
	return func(e *Engine) { e.clk = c }
}

// WithRegistry attaches the registry for the engine's self-metrics.
func WithRegistry(r *metrics.Registry) Option {
	return func(e *Engine) { e.registry = r }
}

// WithConfigurator enacts routing through t alone, registered as the
// "proxy" kind; services of any other kind fail with the unknown-kind
// error. Use WithTargets for several kinds.
func WithConfigurator(t target.Target) Option {
	return func(e *Engine) {
		e.targets = target.NewRegistry()
		_ = e.targets.Register(target.KindProxy, t)
	}
}

// WithTargets dispatches each service's routing to the target its
// deployment's `target:` kind selects in reg (default kind "proxy").
func WithTargets(reg *target.Registry) Option {
	return func(e *Engine) { e.targets = reg }
}

// WithJournalSet attaches the durable run journal, partitioned per run:
// every engine event is appended to its run's partition, and Recover
// replays the partitions after a restart so unfinished strategies resume
// instead of being silently aborted. The engine owns the set from here on
// (Shutdown/Suspend close it). Open one with OpenJournal.
func WithJournalSet(s *journal.Set) Option {
	return func(e *Engine) { e.journals = s }
}

// OpenJournal opens dir as a per-run partitioned journal set.
func OpenJournal(dir string, opts journal.Options) (*journal.Set, error) {
	return journal.OpenSet(dir, journal.SetOptions{Journal: opts})
}

// WithHeartbeatInterval overrides the heartbeat cadence (default 30s):
// multi-replica deployments with short lease TTLs tighten it so adopted
// runs lose almost no elapsed-in-state accuracy.
func WithHeartbeatInterval(d time.Duration) Option {
	return func(e *Engine) {
		if d > 0 {
			e.hbEvery = d
		}
	}
}

// WithFence supplies the fencing token used when a run's journal partition
// is opened (HA mode; see journal.Options.FencingToken). The cluster layer
// maps runs to the tokens of the leases it holds.
func WithFence(fn func(run string) int64) Option {
	return func(e *Engine) { e.fence = fn }
}

// WithEnactGate installs a hook that must succeed before a new enactment is
// accepted; the cluster layer acquires the run's ownership lease here so a
// run is never enacted on a replica that does not own it.
func WithEnactGate(fn func(run string) error) Option {
	return func(e *Engine) { e.enactGate = fn }
}

// WithChildRunner overrides how sub-rollout children are scheduled and
// observed. The default enacts them in-process; cluster deployments install
// an HTTPChildRunner pointed at the cluster-routed API so children shard
// across replicas like any operator-scheduled run.
func WithChildRunner(cr ChildRunner) Option {
	return func(e *Engine) { e.children = cr }
}

// WithEventRingSize overrides the global event replay ring (default 1024
// events); mainly for tests exercising retention-exceeded SSE resumes.
func WithEventRingSize(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.ringSize = n
		}
	}
}

// New creates an engine. By default it uses the real clock, a private
// metrics registry, and targets that accept routing and drop it.
func New(opts ...Option) *Engine {
	e := &Engine{
		clk:      clock.Real{},
		registry: metrics.NewRegistry(),
		ringSize: 1024,
		runs:     make(map[string]*Run, 8),
		stopping: make(chan struct{}),
		mirror:   newEngineMirror(),
		hbEvery:  journalHeartbeatInterval,
	}
	for _, o := range opts {
		o(e)
	}
	if e.children == nil {
		e.children = localChildRunner{eng: e}
	}
	if e.targets == nil {
		e.targets = defaultTargets()
	}
	// Targets that keep time borrow the engine's clock (deterministic
	// backoff and TTLs in tests); the proxy fleet also records its
	// per-replica generation gauges in the engine's registry.
	for _, t := range e.targets.All() {
		if cb, ok := t.(target.ClockBinder); ok {
			cb.BindClock(e.clk)
		}
		if rb, ok := t.(interface{ bindRegistry(*metrics.Registry) }); ok {
			rb.bindRegistry(e.registry)
		}
	}
	e.bus = newEventBus(e.ringSize)
	e.mActive = e.registry.Gauge("engine_active_strategies", nil)
	e.mEnacted = e.registry.Counter("engine_strategies_enacted_total", nil)
	e.mTransitions = e.registry.Counter("engine_transitions_total", nil)
	e.mChecks = e.registry.Counter("engine_check_executions_total", nil)
	e.mJournaled = e.registry.Counter("engine_journal_records_total", nil)
	e.mCompactions = e.registry.Counter("engine_journal_compactions_total", nil)
	e.mRecovered = e.registry.Counter("engine_runs_recovered_total", nil)
	e.mFenced = e.registry.Counter("engine_journal_fenced_total", nil)
	if e.journals != nil {
		e.jw = newJournalWriter(e, e.journals)
		e.hbQuit = make(chan struct{})
		go e.heartbeatLoop(e.clk.NewTicker(e.hbEvery))
	}
	return e
}

// Registry exposes the engine's self-metrics for scraping.
func (e *Engine) Registry() *metrics.Registry { return e.registry }

// Subscribe returns a channel of engine events and a cancel function. The
// channel is closed after cancel. Slow subscribers drop events rather than
// blocking enactment.
func (e *Engine) Subscribe(buffer int) (<-chan Event, func()) {
	return e.bus.subscribe(buffer)
}

// RecentEvents returns up to n of the most recent events, oldest first.
func (e *Engine) RecentEvents(n int) []Event { return e.bus.recent(n) }

// Enact validates the strategy and starts executing it. The returned Run
// tracks progress; the engine keeps running it in the background. Runs
// enacted without source cannot be resumed after a restart — the REST API
// uses EnactSource so the journal can recompile the strategy on recovery.
func (e *Engine) Enact(s *core.Strategy) (*Run, error) {
	return e.EnactSource(s, "")
}

// EnactSource is Enact with the strategy's DSL source attached: the journal
// records the source so a restarted engine can recompile and resume the run.
func (e *Engine) EnactSource(s *core.Strategy, source string) (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if e.enactGate != nil {
		// Outside e.mu: the gate may block on cross-process lease I/O.
		if err := e.enactGate(s.Name); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrEngineClosed
	}
	if r, exists := e.runs[s.Name]; exists && !r.Done() {
		e.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrAlreadyRunning, s.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Run{
		engine:   e,
		strategy: s,
		cancel:   cancel,
		done:     make(chan struct{}),
		evicted:  make(chan struct{}),
		controls: make(chan controlMsg),
	}
	e.runs[s.Name] = r
	// wg.Add under e.mu so Shutdown/Suspend (which set closed under the
	// same lock before waiting) can never miss a newly enacted run.
	e.wg.Add(1)
	e.mu.Unlock()

	e.scheduleRecord(r, source)
	e.mEnacted.Inc()
	e.mActive.Add(1)
	go func() {
		defer e.wg.Done()
		defer e.mActive.Add(-1)
		r.loop(ctx)
	}()
	return r, nil
}

// scheduleRecord publishes r's scheduled event and journals the strategy
// source alongside it (same sequence number, so replay pairs them up). The
// event's reduction, a fresh mirror under the strategy's name, becomes r's
// status.
func (e *Engine) scheduleRecord(r *Run, source string) {
	s := r.strategy
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	ev := e.bus.stamp(Event{Strategy: s.Name, Type: EventScheduled, Time: e.clk.Now()})
	e.mirror.apply(s, ev)
	e.mirror.setSource(s.Name, source)
	r.mirror = e.mirror.Runs[s.Name]
	if source == "" {
		e.emit(ev)
		return
	}
	e.emit(ev, journal.Record{
		Seq: ev.Seq, Time: ev.Time, Type: recSource, Run: s.Name,
		Data: mustJSON(sourceRecord{Source: source}),
	})
}

// publish runs one event through the staged pipeline: stamp a sequence
// number, reduce the event into the durable per-run mirror, then emit it
// to the journal and the subscribers. strategy is used by the
// mirror's planned-duration accounting and may be nil.
func (e *Engine) publish(strategy *core.Strategy, ev Event) {
	e.pubMu.Lock()
	ev = e.bus.stamp(ev)
	e.mirror.apply(strategy, ev)
	e.emit(ev)
	var shouldCompact bool
	if e.journals != nil {
		if j, ok := e.journals.Get(ev.Strategy); ok {
			shouldCompact = j.ShouldCompact()
		}
	}
	e.pubMu.Unlock()

	if shouldCompact && e.compacting.CompareAndSwap(false, true) {
		go e.compact()
	}
}

// Journal record types and payloads.
const (
	recEvent  = "event"
	recSource = "source"
	// recHeartbeat records only the passage of time: recovery measures
	// elapsed-in-state up to the newest journaled record so downtime never
	// counts against a phase, and phases without chatty checks would
	// otherwise appear frozen at their entry time. Heartbeats reuse the
	// current sequence number (they are not events and must not create
	// gaps in the event numbering).
	recHeartbeat = "heartbeat"
)

// journalHeartbeatInterval paces heartbeat records on journaled engines.
const journalHeartbeatInterval = 30 * time.Second

// heartbeatLoop appends heartbeat records until the engine closes. The
// ticker is created by New (synchronously, so tests driving a manual clock
// can rely on it existing before any Advance). Heartbeats go to the
// partition of every unfinished run — each partition must carry its own
// crash-time estimate — and finished runs' partitions stay quiet, so an
// idle journal does not grow.
func (e *Engine) heartbeatLoop(t clock.Ticker) {
	defer t.Stop()
	for {
		select {
		case <-t.C():
			live := e.unfinishedRunNames()
			if len(live) == 0 {
				continue
			}
			// Enqueue under pubMu, so heartbeat times stay consistent with
			// the sequence counter and each heartbeat keeps its place in its
			// partition's publish order. Heartbeats are not events: nothing
			// waits for them.
			e.pubMu.Lock()
			now := e.clk.Now()
			if seq := e.bus.currentSeq(); seq > 0 {
				if now.After(e.mirror.LastTime) {
					e.mirror.LastTime = now
				}
				for _, name := range live {
					e.jw.enqueue(jreq{rec: journal.Record{Seq: seq, Time: now, Type: recHeartbeat, Run: name}})
				}
			}
			e.pubMu.Unlock()
		case <-e.hbQuit:
			return
		}
	}
}

// unfinishedRunNames lists the registered runs that are still live.
func (e *Engine) unfinishedRunNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for name, r := range e.runs {
		if !r.Done() {
			out = append(out, name)
		}
	}
	return out
}

// sourceRecord is the payload of a recSource journal record.
type sourceRecord struct {
	Source string `json:"source"`
}

func mustJSON(v any) json.RawMessage {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // engine payloads are always marshalable
	}
	return raw
}

// emit is the tail of the publish pipeline; callers hold pubMu, so both
// the journal queue and the fan-out follow publish order. It encodes ev
// exactly once into a pooled frame, hands the frame's bytes to the journal
// writer as ev's record, followed by extra (records sharing ev's sequence
// number), and fans the same frame out to subscribers. Removal events are
// not journaled: Remove deletes the whole partition instead, which is the
// stronger statement.
//
// Durability is decided per record. A record that must be durable before
// it is visible — a terminal event on any set, every event on a
// write-through set — is waited for before the fan-out, still under
// pubMu, so fan-out stays in sequence order and no subscriber (and no
// status read) sees an event a crash could unwind. Every other frame fans
// out at once.
func (e *Engine) emit(ev Event, extra ...journal.Record) {
	f := newFrame(ev)
	if e.journals != nil && ev.Type != EventRemoved {
		terminal := ev.Type == EventCompleted || ev.Type == EventAborted || ev.Type == EventError
		e.jw.enqueue(jreq{
			rec:  journal.Record{Seq: ev.Seq, Time: ev.Time, Type: recEvent, Run: ev.Strategy},
			f:    f.retain(),
			sync: terminal,
		})
		for _, rec := range extra {
			e.jw.enqueue(jreq{rec: rec})
		}
		if terminal || e.jw.writeThrough {
			e.jw.barrier()
		}
	}
	e.bus.fanout(f)
}

// fenceFor returns the fencing token for run's partition (0: flock mode).
func (e *Engine) fenceFor(run string) int64 {
	if e.fence == nil {
		return 0
	}
	return e.fence(run)
}

// compact snapshots each run whose partition grew past its compaction
// threshold and asks that partition to drop the records the snapshot
// covers. Runs in its own goroutine, one at a time.
func (e *Engine) compact() {
	defer e.compacting.Store(false)
	e.pubMu.Lock()
	// Capture the set under pubMu: closeJournal nils the field during
	// Suspend/Shutdown, possibly between our unlock and the Compact calls.
	js := e.journals
	if js == nil {
		e.pubMu.Unlock()
		return
	}
	e.mCompactions.Add(float64(e.snapshotAndUnlock(js, (*journal.Journal).ShouldCompact)))
}

// snapshotAndUnlock is entered with pubMu held and releases it. Under the
// lock it clones the mirror of each run whose partition in js passes keep
// (nil keeps every one); outside it, it marshals each clone and compacts
// the partition up to the current sequence, so JSON-encoding the mirrors
// never stalls the publish pipeline. It returns how many partitions were
// compacted.
func (e *Engine) snapshotAndUnlock(js *journal.Set, keep func(*journal.Journal) bool) int {
	e.mirror.Generation = e.generation.Load()
	seq := e.bus.currentSeq()
	type item struct {
		j      *journal.Journal
		mirror *engineMirror
	}
	var items []item
	js.Each(func(run string, j *journal.Journal) {
		if keep != nil && !keep(j) {
			return
		}
		if m := e.mirror.cloneRun(run); m != nil {
			items = append(items, item{j, m})
		}
	})
	e.pubMu.Unlock()
	if seq == 0 {
		return 0
	}
	compacted := 0
	for _, it := range items {
		if snap, err := json.Marshal(it.mirror); err == nil && it.j.Compact(snap, seq) == nil {
			compacted++
		}
	}
	return compacted
}

// Run returns the run for a strategy name.
func (e *Engine) Run(name string) (*Run, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.runs[name]
	return r, ok
}

// Runs snapshots all known runs.
func (e *Engine) Runs() []*Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Run, 0, len(e.runs))
	for _, r := range e.runs {
		out = append(out, r)
	}
	return out
}

// Abort stops a running strategy.
func (e *Engine) Abort(name string) error {
	e.mu.Lock()
	r, ok := e.runs[name]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	r.Abort()
	return nil
}

// Pause suspends a running strategy at its current state, returning the new
// pause generation (see Run.Pause).
func (e *Engine) Pause(name string) (int, error) {
	r, ok := e.Run(name)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return r.Pause()
}

// Resume continues a paused strategy (see Run.Resume).
func (e *Engine) Resume(name string, gen int) error {
	r, ok := e.Run(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return r.Resume(gen)
}

// Promote applies a manual success gate decision (see Run.Promote).
func (e *Engine) Promote(name, target string) error {
	r, ok := e.Run(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return r.Promote(target)
}

// Rollback applies a manual failure gate decision (see Run.Rollback).
func (e *Engine) Rollback(name, target string) error {
	r, ok := e.Run(name)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return r.Rollback(target)
}

// RunEvents returns up to n events of one strategy's durable history,
// oldest first. The history is journal-backed: it is rebuilt on recovery,
// so it spans engine restarts (bounded per run, unlike the global ring that
// other runs' chatter can evict).
func (e *Engine) RunEvents(name string, n int) []Event {
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return e.mirror.events(name, n)
}

// eventsSince returns retained events with Seq > afterSeq for SSE resume:
// from the per-run durable history when strategy is set, from the global
// replay ring otherwise. dropped reports that part of the gap is beyond
// retention.
func (e *Engine) eventsSince(strategy string, afterSeq int64) ([]Event, bool) {
	if strategy == "" {
		return e.bus.since(afterSeq)
	}
	e.pubMu.Lock()
	defer e.pubMu.Unlock()
	return e.mirror.eventsSince(strategy, afterSeq)
}

// Remove forgets a finished run (keeps the registry tidy between tests and
// long engine uptimes). Running strategies cannot be removed. The run's
// journaled history is dropped at the next compaction. Journal entries
// that Recover could not resume (source lost or no longer compiling) have
// no registered run but can still be removed by name, so they don't haunt
// every future snapshot.
func (e *Engine) Remove(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.runs[name]
	if ok && !r.Done() {
		return fmt.Errorf("engine: strategy %s still running", name)
	}
	if !ok {
		e.pubMu.Lock()
		_, inMirror := e.mirror.Runs[name]
		e.pubMu.Unlock()
		if !inMirror {
			return fmt.Errorf("%w: %s", ErrNotFound, name)
		}
	}
	delete(e.runs, name)

	// Drop the run's journal partition before announcing the removal: a
	// crash in between leaves no trace for recovery to resurrect. The
	// removal is still published as a regular event (mirror + SSE) so
	// watchers and the dashboard see it; emit does not journal it — there is
	// no partition left to write to. Done under e.mu so a concurrent
	// re-enactment of the name cannot schedule between the partition
	// removal and the mirror removal.
	if e.journals != nil {
		// Flush queued appends first: a record still in the writer's
		// queue must not re-create the partition directory after the
		// removal. Safe under e.mu — the writer never takes it.
		e.jw.barrier()
		_ = e.journals.Remove(name)
	}
	e.publish(nil, Event{Strategy: name, Type: EventRemoved, Time: e.clk.Now()})
	return nil
}

// Evict stops a run's loop without a terminal record and unregisters it,
// closing (not deleting) its journal partition: the run's lease moved to
// another replica, which has adopted — or is about to adopt — the run from
// that same partition. The counterpart of adoption via RecoverRun.
func (e *Engine) Evict(name string) error {
	e.mu.Lock()
	r, ok := e.runs[name]
	if !ok {
		e.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	delete(e.runs, name)
	e.mu.Unlock()

	if !r.Done() {
		r.evictOnce.Do(func() { close(r.evicted) })
		<-r.done
	}
	e.pubMu.Lock()
	delete(e.mirror.Runs, name)
	e.pubMu.Unlock()
	if e.journals != nil {
		// The run's queued records must reach the partition before it
		// closes — the adopting replica replays this file.
		e.jw.barrier()
		_ = e.journals.CloseRun(name)
	}
	return nil
}

// Shutdown aborts everything and waits for run loops to stop. The aborts
// are journaled as terminal records: after Shutdown the strategies are
// over, and a later restart will not resume them. Use Suspend to restart
// the control plane without ending its runs.
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if !e.closed && e.hbQuit != nil {
		close(e.hbQuit)
	}
	e.closed = true
	for _, r := range e.runs {
		r.Abort()
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.closeJournal()
	e.bus.close()
}

// Suspend stops every run loop without terminal records: the journal keeps
// showing the runs mid-state, so an engine restarted on the same journal
// directory resumes them via Recover. This is the graceful half of crash
// recovery — SIGTERM during a deploy behaves like a crash with zero lost
// records.
func (e *Engine) Suspend() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		e.wg.Wait()
		return
	}
	e.closed = true
	if e.hbQuit != nil {
		close(e.hbQuit)
	}
	close(e.stopping)
	e.mu.Unlock()
	e.wg.Wait()
	e.closeJournal()
	e.bus.close()
}

// closeJournal takes a final per-partition snapshot (so restarts replay a
// compact prefix) and closes the set. Run loops have already stopped.
func (e *Engine) closeJournal() {
	e.pubMu.Lock()
	js := e.journals
	if js == nil {
		e.pubMu.Unlock()
		return
	}
	// Drain the writer before clearing the field, so every queued record
	// lands in its partition. The writer takes no pubMu, and holding it
	// keeps publishers from enqueueing in between.
	e.jw.stopAndDrain()
	e.journals = nil
	e.snapshotAndUnlock(js, nil)
	_ = js.Close()
}

// nextGeneration issues monotonically increasing proxy config generations.
func (e *Engine) nextGeneration() int64 { return e.generation.Add(1) }
