package bifrost

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/metrics"
)

// The events workload is the engine's publish pipeline (stamp, encode,
// mirror, journal, fan-out) with no HTTP: a journaled engine with the
// default group commit, and eventStreams SSE streams of every run's events
// served by Engine.ServeEventStream into in-memory writers.
const (
	eventStreams = 64
	eventRate    = 4000 // events per second in the open-loop phase
	// eventRuns is how many runs the open-loop events belong to, round
	// robin, each with its own journal partition. With one run the
	// partition falls into a compaction storm whose size depends on timing
	// (bench/README.md), and cpu_ms_per_op no longer repeats; spread over
	// 16 partitions the journal compacts a few dozen times a run, and
	// journal.compactions shows the count.
	eventRuns = 16
	// eventsOpen is the open-loop share of the window; the closed-loop
	// burst that follows publishes as fast as it can for eventsBurst, all
	// into one run, as a single chatty run does.
	eventsOpen    = 0.6
	eventsBurst   = 0.3
	eventsMaxWait = 10 * time.Second
	burstRun      = "burst"
	// lagSampling: each stream times every lagSampling-th event, offset by
	// its id, so every event is timed on some streams and the lag samples
	// stay small next to the engine's own memory.
	lagSampling = 8
)

// eventRunNames names the open-loop phase's runs.
var eventRunNames = func() []string {
	names := make([]string, eventRuns)
	for i := range names {
		names[i] = fmt.Sprintf("run-%02d", i)
	}
	return names
}()

// sseStream is an in-memory http.ResponseWriter and Flusher that one
// ServeEventStream call writes to. It parses the SSE frames as they
// arrive and keeps what the workload measures. Only the serving goroutine
// writes its fields; the atomics are what other goroutines may read while
// it runs.
type sseStream struct {
	id     int
	header http.Header
	ready  chan struct{}
	once   sync.Once

	// open is the open-loop phase's schedule: event i was due at
	// openStart + i*openPeriod, for i < openN.
	openStart  time.Time
	openPeriod time.Duration
	openN      int
	lags       []time.Duration
	// got has bit i set once open-loop event i arrived.
	got []uint64

	pending []byte
	writes  int // Write calls since the last complete frame
	lastSeq int64

	burstFrames int // closed-loop events received
	replayed    int // frames assembled from several writes: history replays
	markers     int // events_dropped markers
	disorder    []string

	openGot  atomic.Int64 // distinct open-loop events received
	terminal atomic.Int64 // when the terminal event arrived, ns since openStart
}

func newSSEStream(id int, period time.Duration, openN int) *sseStream {
	return &sseStream{
		id: id, header: http.Header{}, ready: make(chan struct{}),
		openPeriod: period, openN: openN, got: make([]uint64, (openN+63)/64),
	}
}

// received reports whether open-loop event i arrived.
func (s *sseStream) received(i int) bool { return s.got[i/64]&(1<<(i%64)) != 0 }

func (s *sseStream) Header() http.Header { return s.header }

func (s *sseStream) WriteHeader(int) {}

// Flush marks the stream subscribed: ServeEventStream subscribes before
// its first flush.
func (s *sseStream) Flush() { s.once.Do(func() { close(s.ready) }) }

// Write collects frames. SendRaw, the live path, writes each frame in one
// call; Send, which replays retained history and writes drop markers,
// needs several.
func (s *sseStream) Write(p []byte) (int, error) {
	now := time.Now()
	if len(s.pending) == 0 && bytes.HasSuffix(p, frameEnd) {
		s.frame(p[:len(p)-len(frameEnd)], false, now)
		return len(p), nil
	}
	s.pending = append(s.pending, p...)
	s.writes++
	for {
		i := bytes.Index(s.pending, frameEnd)
		if i < 0 {
			return len(p), nil
		}
		s.frame(s.pending[:i], s.writes > 1, now)
		s.pending = append(s.pending[:0], s.pending[i+2:]...)
		s.writes = 0
	}
}

var (
	frameEnd      = []byte("\n\n")
	eventPrefix   = []byte("event: ")
	idPrefix      = []byte("id: ")
	outcomeMarker = []byte(`"outcome":`)
)

func (s *sseStream) frame(f []byte, replayed bool, now time.Time) {
	var name []byte
	var seq int64
	index := -1
	for len(f) > 0 {
		line := f
		if j := bytes.IndexByte(f, '\n'); j >= 0 {
			line, f = f[:j], f[j+1:]
		} else {
			f = nil
		}
		switch {
		case bytes.HasPrefix(line, eventPrefix):
			name = line[len(eventPrefix):]
		case bytes.HasPrefix(line, idPrefix):
			seq, _ = strconv.ParseInt(string(line[len(idPrefix):]), 10, 64)
		default:
			if k := bytes.Index(line, outcomeMarker); k >= 0 {
				index = parseLeadingInt(line[k+len(outcomeMarker):]) - 1
			}
		}
	}
	if string(name) == string(engine.EventEventsDropped) {
		s.markers++
		return
	}
	if seq <= s.lastSeq {
		s.disorder = append(s.disorder, fmt.Sprintf("seq %d after %d", seq, s.lastSeq))
	}
	s.lastSeq = seq
	if replayed {
		s.replayed++
	}
	switch {
	case string(name) == string(engine.EventCompleted):
		s.terminal.Store(int64(now.Sub(s.openStart)))
	case index >= s.openN:
		s.burstFrames++
	case index >= 0:
		if !s.received(index) {
			s.got[index/64] |= 1 << (index % 64)
			s.openGot.Add(1)
		}
		if (index+s.id)%lagSampling == 0 {
			s.lags = append(s.lags, now.Sub(s.openStart.Add(time.Duration(index)*s.openPeriod)))
		}
	}
}

// parseLeadingInt parses the decimal number at the start of b.
func parseLeadingInt(b []byte) int {
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n
}

type eventsEnv struct {
	eng      *engine.Engine
	registry *metrics.Registry
	dir      string
	streams  []*sseStream
	cancel   context.CancelFunc
	wg       sync.WaitGroup
}

// close ends the streams before shutting the engine down.
func (e *eventsEnv) close() {
	if e.cancel != nil {
		e.cancel()
	}
	e.wg.Wait()
	if e.eng != nil {
		e.eng.Shutdown()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

func newEventsEnv(ctx context.Context, period time.Duration, openN int) (_ *eventsEnv, err error) {
	e := &eventsEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.eng, e.registry, e.dir, err = newJournaledEngine(); err != nil {
		return nil, err
	}
	streamCtx, cancel := context.WithCancel(ctx)
	e.cancel = cancel
	for i := 0; i < eventStreams; i++ {
		s := newSSEStream(i, period, openN)
		req, err := http.NewRequestWithContext(streamCtx, http.MethodGet, "/api/v2/events/stream", nil)
		if err != nil {
			return nil, err
		}
		e.streams = append(e.streams, s)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.eng.ServeEventStream(s, req, "", 0)
		}()
	}
	for _, s := range e.streams {
		select {
		case <-s.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return e, nil
}

// drainUntil waits until done holds for every stream, or eventsMaxWait
// passes. Meanwhile it publishes a drain event every 10ms: a stream whose
// channel dropped the newest events only backfills them once a later event
// exposes the gap.
func (e *eventsEnv) drainUntil(done func(*sseStream) bool) {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	deadline := time.Now().Add(eventsMaxWait)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range e.streams {
			if !done(s) {
				all = false
				break
			}
		}
		if all {
			return
		}
		select {
		case <-t.C:
			e.eng.PublishBench(engine.Event{
				Strategy: burstRun, Type: engine.EventCheckExecuted,
				State: "canary", Check: "drain", Time: time.Now(),
			})
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

func runEvents(ctx context.Context, r *run) error {
	openN := int(eventRate * r.opts.Seconds * eventsOpen)
	period := time.Second / eventRate
	e, setup, err := measureSetup(func() (*eventsEnv, error) { return newEventsEnv(ctx, period, openN) })
	if err != nil {
		return err
	}
	defer e.close()
	r.set("setup_s", setup)

	// The streams read these only when frames arrive, which the engine's
	// fan-out channel orders after the writes.
	openStart := time.Now().Add(10 * time.Millisecond)
	for _, s := range e.streams {
		s.openStart = openStart
		s.lags = make([]time.Duration, 0, openN/lagSampling+1)
	}
	records0, written0 := counterValue(e.registry, "engine_journal_records_total"), bytesWritten()
	compactions0 := counterValue(e.registry, "engine_journal_compactions_total")

	// Open loop: events due at a fixed rate, published inline so a slow
	// publish delays the ones behind it and shows as lag.
	cpu0 := cpuTime()
	r.late = openLoop(ctx, openStart, evenly(openN, period), func(i int, intended time.Time) {
		r.publishEvent(e.eng, eventRunNames[i%eventRuns], i, intended)
	})
	e.drainUntil(func(s *sseStream) bool { return s.openGot.Load() == int64(openN) })
	cpu := cpuTime() - cpu0
	// The end-to-end metrics cover the open loop only; the burst below
	// feeds the per-layer saturation figures.
	r.set("mem_peak_mb", memPeakMB())

	// Closed loop: publish back to back, then the terminal event.
	allocs0 := mallocs()
	burstStart := time.Now()
	burstEnd := burstStart.Add(r.scaled(eventsBurst))
	burst := 0
	for ; time.Now().Before(burstEnd) && ctx.Err() == nil; burst++ {
		r.publishEvent(e.eng, burstRun, openN+burst, time.Now())
	}
	allocs := mallocs() - allocs0
	e.eng.PublishBench(engine.Event{Strategy: burstRun, Type: engine.EventCompleted, Time: time.Now()})
	e.drainUntil(func(s *sseStream) bool { return s.terminal.Load() > 0 })
	e.cancel()
	e.wg.Wait()
	r.window = time.Since(openStart)

	var lags []time.Duration
	var received, replayed, markers, openMissed int
	var lastTerminal time.Duration
	for i, s := range e.streams {
		lags = append(lags, s.lags...)
		received += s.burstFrames
		replayed += s.replayed
		markers += s.markers
		openMissed += openN - int(s.openGot.Load())
		if t := time.Duration(s.terminal.Load()); t > lastTerminal {
			lastTerminal = t
		} else if t == 0 {
			r.fail("events: stream %d never received the terminal event", i)
		}
		for _, d := range s.disorder {
			r.fail("events: stream %d saw %s", i, d)
		}
	}
	// An open-loop event failed when some stream never received it.
	lost := 0
	for i := 0; i < openN; i++ {
		for _, s := range e.streams {
			if !s.received(i) {
				lost++
				break
			}
		}
	}
	r.res.Attempted = openN + burst
	r.res.Failed = lost + len(r.res.Gates)
	if lost > 0 {
		r.fail("events: %d of %d open-loop events never reached every stream (%d (event, stream) pairs)", lost, openN, openMissed)
	}
	lagMs := r.setLatency(lags)
	r.set("event_lag_p50_ms", quantile(lagMs, 0.5))
	r.set("event_lag_p99_ms", quantile(lagMs, 0.99))
	r.set("event_loss_ratio", float64(openMissed)/float64(openN*eventStreams))
	r.set("cpu_ms_per_op", cpu.Seconds()*1000/float64(openN))
	r.set("engine.allocs_per_event", float64(allocs)/float64(burst))
	r.set("sse.backfilled_frames", float64(replayed))
	r.set("sse.dropped_markers", float64(markers))
	r.set("burst_loss_ratio", 1-float64(received)/float64(burst*eventStreams))
	goodput := 0.0
	if busy := lastTerminal - burstStart.Sub(openStart); busy > 0 {
		goodput = float64(received) / eventStreams / busy.Seconds()
	}
	r.set("events_per_s", goodput)
	records := counterValue(e.registry, "engine_journal_records_total") - records0
	r.set("journal.records", records)
	r.set("journal.compactions", counterValue(e.registry, "engine_journal_compactions_total")-compactions0)
	// The workload opens no sockets, so the bytes it writes are the
	// journal's.
	r.set("journal.bytes_per_event", (bytesWritten()-written0)/float64(openN+burst))
	return nil
}

// publishEvent publishes workload event i as an event of run; its index
// travels in Outcome (offset by one, since a zero Outcome is omitted from
// the encoding).
func (r *run) publishEvent(eng *engine.Engine, run string, i int, at time.Time) {
	start := r.tr.Now()
	eng.PublishBench(engine.Event{
		Strategy: run, Type: engine.EventCheckExecuted,
		State: "canary", Check: "latency", Outcome: i + 1, Time: at,
	})
	r.tr.End("engine.publish", start)
}
