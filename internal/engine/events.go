package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/core"
)

// EventType classifies engine events.
type EventType string

// Engine event types, published on the event bus and shown by the CLI and
// dashboard.
const (
	// EventScheduled marks a strategy entering the engine (Enact accepted
	// it); the run journal stores the strategy source alongside it.
	EventScheduled      EventType = "scheduled"
	EventStateEntered   EventType = "state_entered"
	EventRoutingApplied EventType = "routing_applied"
	// EventRoutingConverged marks every proxy replica of a service
	// reporting the run's current routing generation again after a
	// degradation; EventRoutingDegraded marks one or more replicas lagging
	// or unreachable (the reconciler keeps re-pushing until they return).
	EventRoutingConverged   EventType = "routing_converged"
	EventRoutingDegraded    EventType = "routing_degraded"
	EventCheckExecuted      EventType = "check_executed"
	EventExceptionTriggered EventType = "exception_triggered"
	// EventCheckConcluded marks a sequential check reaching a decision
	// before the state timer: the state ends early and either δ fires or
	// the check's fallback is taken.
	EventCheckConcluded EventType = "check_concluded"
	// EventBurnRateTriggered marks a burnrate check detecting SLO
	// error-budget burn in both of its windows; the run transitions to
	// the check's fallback state (automatic rollback).
	EventBurnRateTriggered EventType = "burnrate_triggered"
	EventTransition        EventType = "transition"
	EventPaused            EventType = "paused"
	EventResumed           EventType = "resumed"
	EventGateDecision      EventType = "gate_decision"
	EventCompleted         EventType = "completed"
	EventAborted           EventType = "aborted"
	EventError             EventType = "error"
	// EventRecovered marks a run resuming after an engine restart: the
	// journal was replayed and the automaton continues from its recorded
	// state with elapsed-in-state time preserved.
	EventRecovered EventType = "recovered"
	// EventRemoved marks a finished run being forgotten (Engine.Remove);
	// journaled so restarts do not resurrect the run's history.
	EventRemoved EventType = "removed"
	// EventChildScheduled, EventChildUpdate, and EventChildTerminal are the
	// child-linkage events of hierarchical rollouts, journaled into the
	// PARENT's partition: a parent run entering a sub-rollout state
	// schedules one child run per region and mirrors their progress here,
	// so the region tree is reduced into the parent's Status.Children both
	// live and on journal replay. The quorum decision itself is a normal
	// transition event (Cause "quorum", "quorum_failed", or
	// "child_failure").
	EventChildScheduled EventType = "child_scheduled"
	EventChildUpdate    EventType = "child_update"
	EventChildTerminal  EventType = "child_terminal"
	// EventEventsDropped is a per-stream marker (never journaled as part of
	// a run): the SSE client's Last-Event-ID points before the retained
	// history, so a gap could not be replayed.
	EventEventsDropped EventType = "events_dropped"
)

// Event is one observable engine occurrence.
type Event struct {
	Seq      int64     `json:"seq"`
	Strategy string    `json:"strategy"`
	Type     EventType `json:"type"`
	State    string    `json:"state,omitempty"`
	Check    string    `json:"check,omitempty"`
	// Detail is type-specific: transition target, routing service,
	// exception fallback, or error text.
	Detail  string `json:"detail,omitempty"`
	Outcome int    `json:"outcome,omitempty"`
	// Cause labels transition events like Transition.Cause: empty for δ,
	// "exception", "burnrate", "sequential", "promote", "rollback".
	Cause string `json:"cause,omitempty"`
	// PauseGen is the pause generation announced by paused events; a
	// conditional resume must present it.
	PauseGen int `json:"pauseGen,omitempty"`
	// Elapsed is the preserved elapsed-in-state time announced by
	// recovered events, so the journal's reduction backdates the state
	// entry exactly like the live run does — keeping the invariant across
	// any number of restarts.
	Elapsed time.Duration `json:"elapsed,omitempty"`
	// Active is the run's cumulative active wall time before this
	// recovery (recovered events only): delay accounting resumes from it,
	// excluding every restart's downtime.
	Active time.Duration `json:"active,omitempty"`
	// Generation is the proxy config generation of routing_applied,
	// routing_converged, and routing_degraded events; recovery restores
	// the engine's generation counter from it so re-applied configs are
	// not rejected as stale by surviving proxies.
	Generation int64 `json:"generation,omitempty"`
	// Service, Replicas, and Acked describe fleet convergence on
	// routing_converged and routing_degraded events: the affected
	// service, its fleet size, and how many replicas run Generation.
	// Lagging names the replicas behind Generation (degraded only), so
	// status reduced from events identifies them across restarts.
	Service  string   `json:"service,omitempty"`
	Replicas int      `json:"replicas,omitempty"`
	Acked    int      `json:"acked,omitempty"`
	Lagging  []string `json:"lagging,omitempty"`
	// Child, Region, ChildState, and ChildPhase describe one sub-rollout
	// child on child_scheduled / child_update / child_terminal events: the
	// child run's name, its region label, its run state, and the automaton
	// state it is in. On child_terminal, Outcome is 1 when the child passed
	// (completed in its success final) and 0 otherwise.
	Child      string `json:"child,omitempty"`
	Region     string `json:"region,omitempty"`
	ChildState string `json:"childState,omitempty"`
	ChildPhase string `json:"childPhase,omitempty"`
	// Verdict carries the statistical result of check_executed,
	// check_concluded, and burnrate_triggered events for compare,
	// sequential, and burnrate checks.
	Verdict *core.Verdict `json:"verdict,omitempty"`
	Time    time.Time     `json:"time"`
}

// eventBus fans events out to subscribers and keeps a bounded replay
// buffer for the status API.
type eventBus struct {
	mu sync.Mutex
	// seq is the newest stamped sequence number; shown is the newest one
	// fanned out, the last event readers of the bus can see.
	seq, shown int64
	ring       []Event
	next       int
	full       bool
	subs       map[int]chan Event
	// frameSubs receive the pooled encode-once frames instead of Event
	// copies: the SSE fan-out path subscribes here so each delivery is one
	// pointer send and the pre-encoded bytes are shared by every stream.
	frameSubs map[int]*frameSub
	subSeq    int
	closed    bool
}

// frameSub is one encode-once subscriber. The bus sets dropped when it
// drops a frame because ch is full, so a subscriber that drains ch can
// tell a lost tail from a quiet bus without reading the bus's sequence.
type frameSub struct {
	ch      chan *frame
	dropped atomic.Bool
}

func newEventBus(ringSize int) *eventBus {
	return &eventBus{
		ring:      make([]Event, ringSize),
		subs:      make(map[int]chan Event),
		frameSubs: make(map[int]*frameSub),
	}
}

// stamp assigns the next sequence number. The event stays invisible —
// out of the replay ring, unseen by subscribers — until fanout: between
// the two the publish pipeline journals it and, when its record must be
// durable before it is visible, waits for that record.
func (b *eventBus) stamp(ev Event) Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ev
	}
	b.seq++
	ev.Seq = b.seq
	return ev
}

// insertLocked adds ev to the replay ring and marks its sequence number
// shown. Callers hold b.mu.
func (b *eventBus) insertLocked(ev Event) {
	b.ring[b.next] = ev
	b.next = (b.next + 1) % len(b.ring)
	if b.next == 0 {
		b.full = true
	}
	b.shown = max(b.shown, ev.Seq)
}

// fanout makes a stamped frame visible: it enters the replay ring, and
// subscribers receive Event copies on classic channels and retained frame
// pointers on frame channels. It consumes the caller's reference.
func (b *eventBus) fanout(f *frame) {
	b.mu.Lock()
	if !b.closed {
		b.insertLocked(f.ev)
	}
	for _, ch := range b.subs {
		select {
		case ch <- f.ev:
		default: // slow subscriber: drop; ServeEventStream backfills from the ring
		}
	}
	for _, sub := range b.frameSubs {
		f.retain()
		select {
		case sub.ch <- f:
		default:
			// Slow subscriber: drop the delivery (and its reference) and
			// mark it; ServeEventStream backfills the gap from retained
			// history, which already holds f.
			f.release()
			sub.dropped.Store(true)
		}
	}
	b.mu.Unlock()
	f.release()
}

// restore replays a journaled event into the ring during recovery, without
// fanning it out, and advances the sequence counter so new events continue
// the pre-restart numbering (SSE Last-Event-ID stays valid across restarts).
func (b *eventBus) restore(ev Event) {
	b.mu.Lock()
	b.seq = max(b.seq, ev.Seq)
	b.insertLocked(ev)
	b.mu.Unlock()
}

// setSeq fast-forwards the sequence counter (recovery from a snapshot whose
// events are no longer individually available).
func (b *eventBus) setSeq(seq int64) {
	b.mu.Lock()
	b.seq = max(b.seq, seq)
	b.shown = max(b.shown, seq)
	b.mu.Unlock()
}

// currentSeq returns the sequence number of the newest visible event.
// Under pubMu that is also the newest stamped one.
func (b *eventBus) currentSeq() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shown
}

// since returns the buffered events with Seq > afterSeq, oldest first, and
// whether events in that range were already evicted from the ring (the gap
// exceeds retention and cannot be fully replayed).
func (b *eventBus) since(afterSeq int64) ([]Event, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	size := b.next
	if b.full {
		size = len(b.ring)
	}
	start := b.next - size
	if start < 0 {
		start += len(b.ring)
	}
	var out []Event
	for i := 0; i < size; i++ {
		ev := b.ring[(start+i)%len(b.ring)]
		if ev.Seq > afterSeq {
			out = append(out, ev)
		}
	}
	var oldest int64
	if size > 0 {
		oldest = b.ring[start%len(b.ring)].Seq
	} else {
		// Empty ring: everything shown so far is gone.
		oldest = b.shown + 1
	}
	dropped := oldest > afterSeq+1
	return out, dropped
}

func (b *eventBus) subscribe(buffer int) (<-chan Event, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	id := b.subSeq
	b.subSeq++
	b.subs[id] = ch
	b.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.subs[id]; ok {
				delete(b.subs, id)
				close(ch)
			}
			b.mu.Unlock()
		})
	}
	return ch, cancel
}

// subscribeFrames is subscribe for the encode-once frame path. Receivers
// must release every frame they take from the subscriber's channel.
func (b *eventBus) subscribeFrames(buffer int) (*frameSub, func()) {
	if buffer <= 0 {
		buffer = 64
	}
	sub := &frameSub{ch: make(chan *frame, buffer)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		close(sub.ch)
		return sub, func() {}
	}
	id := b.subSeq
	b.subSeq++
	b.frameSubs[id] = sub
	b.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			if _, ok := b.frameSubs[id]; ok {
				delete(b.frameSubs, id)
				close(sub.ch)
			}
			b.mu.Unlock()
		})
	}
	return sub, cancel
}

func (b *eventBus) recent(n int) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	size := b.next
	if b.full {
		size = len(b.ring)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Event, 0, n)
	start := b.next - n
	if start < 0 {
		start += len(b.ring)
	}
	for i := 0; i < n; i++ {
		out = append(out, b.ring[(start+i)%len(b.ring)])
	}
	return out
}

func (b *eventBus) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, ch := range b.subs {
		delete(b.subs, id)
		close(ch)
	}
	for id, sub := range b.frameSubs {
		delete(b.frameSubs, id)
		close(sub.ch)
	}
}
