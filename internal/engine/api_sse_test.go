package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/httpx"
)

// readStreamEvents opens the SSE endpoint (optionally resuming with
// Last-Event-ID) and collects events until stopAt matches or the timeout
// hits.
func readStreamEvents(t *testing.T, url string, lastID int64,
	stopAt func(Event) bool, timeout time.Duration) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := httpx.StreamClient.Do(req)
	if err != nil {
		t.Fatalf("stream request: %v", err)
	}
	defer resp.Body.Close()
	var out []Event
	_ = httpx.ReadSSE(resp.Body, func(se httpx.SSEEvent) error {
		var ev Event
		if json.Unmarshal(se.Data, &ev) != nil {
			return nil
		}
		out = append(out, ev)
		if stopAt(ev) {
			return context.Canceled // ends the read, not an assertion failure
		}
		return nil
	})
	return out
}

func runQuick(t *testing.T, eng *Engine, name string) Status {
	t.Helper()
	s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 3)
	s.Name = name
	run, err := eng.Enact(s)
	if err != nil {
		t.Fatalf("Enact: %v", err)
	}
	return waitDone(t, run)
}

// TestSSEResumeWithLastEventID reconnects mid-history and must receive
// exactly the events after the presented id — no misses, no repeats.
func TestSSEResumeWithLastEventID(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	srv := httptest.NewServer(NewAPI(eng, nil).Handler())
	defer srv.Close()

	runQuick(t, eng, "quick-resume")
	all := eng.RecentEvents(0)
	if len(all) < 5 {
		t.Fatalf("only %d events buffered", len(all))
	}
	mid := all[2].Seq
	last := all[len(all)-1].Seq

	got := readStreamEvents(t, srv.URL+"/api/v2/events/stream", mid,
		func(ev Event) bool { return ev.Seq >= last }, 5*time.Second)

	want := all[3:]
	if len(got) != len(want) {
		t.Fatalf("resumed stream delivered %d events, want %d (got %+v)",
			len(got), len(want), got)
	}
	for i := range want {
		if got[i].Seq != want[i].Seq {
			t.Fatalf("event %d: seq %d, want %d", i, got[i].Seq, want[i].Seq)
		}
		if got[i].Type == EventEventsDropped {
			t.Fatalf("unexpected drop marker with a fully retained gap")
		}
	}
}

// TestSSEDropMarkerWhenGapExceedsRetention shrinks the replay ring so the
// reconnect gap cannot be replayed; the stream must say so explicitly.
func TestSSEDropMarkerWhenGapExceedsRetention(t *testing.T) {
	eng := New(WithEventRingSize(4))
	defer eng.Shutdown()
	srv := httptest.NewServer(NewAPI(eng, nil).Handler())
	defer srv.Close()

	runQuick(t, eng, "quick-drop") // publishes far more than 4 events
	retained := eng.RecentEvents(0)
	if len(retained) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(retained))
	}
	last := retained[len(retained)-1].Seq

	got := readStreamEvents(t, srv.URL+"/api/v2/events/stream", 1,
		func(ev Event) bool { return ev.Seq >= last }, 5*time.Second)

	if len(got) == 0 || got[0].Type != EventEventsDropped {
		t.Fatalf("first frame = %+v, want an events_dropped marker", got)
	}
	if len(got) != 1+len(retained) {
		t.Fatalf("got %d frames, want marker + %d retained events", len(got), len(retained))
	}
	for i, ev := range got[1:] {
		if ev.Seq != retained[i].Seq {
			t.Fatalf("frame %d: seq %d, want %d", i+1, ev.Seq, retained[i].Seq)
		}
	}
}

// TestSSESequenceResetDetected: a client resuming with a Last-Event-ID
// above the engine's current sequence (the engine restarted without its
// journal) must get an explicit reset marker and then live events — not a
// permanently silent stream discarding everything below the stale id.
func TestSSESequenceResetDetected(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	srv := httptest.NewServer(NewAPI(eng, nil).Handler())
	defer srv.Close()

	runQuick(t, eng, "pre-reset")

	go func() {
		time.Sleep(100 * time.Millisecond)
		s := canaryStrategy(core.ConstEvaluator(true), time.Millisecond, 3)
		s.Name = "post-reset"
		if run, err := eng.Enact(s); err == nil {
			run.Wait(context.Background())
		}
	}()

	got := readStreamEvents(t, srv.URL+"/api/v2/events/stream", 99999,
		func(ev Event) bool {
			return ev.Type == EventCompleted && ev.Strategy == "post-reset"
		}, 10*time.Second)

	if len(got) == 0 || got[0].Type != EventEventsDropped {
		t.Fatalf("first frame = %+v, want a sequence-reset events_dropped marker", got)
	}
	var sawPost bool
	for _, ev := range got {
		if ev.Strategy == "post-reset" && ev.Type == EventCompleted {
			sawPost = true
		}
	}
	if !sawPost {
		t.Fatal("live events after the reset marker never arrived")
	}
}

// TestRunEventsSurviveGlobalRingEviction: one noisy run must not be able to
// evict another run's history (the old implementation filtered the shared
// global ring).
func TestRunEventsSurviveGlobalRingEviction(t *testing.T) {
	eng := New(WithEventRingSize(8))
	defer eng.Shutdown()

	runQuick(t, eng, "quiet")
	quiet := eng.RunEvents("quiet", 0)
	if len(quiet) == 0 {
		t.Fatal("no history for quiet run")
	}

	runQuick(t, eng, "noisy") // floods the 8-slot global ring

	after := eng.RunEvents("quiet", 0)
	if len(after) != len(quiet) {
		t.Fatalf("quiet run history shrank from %d to %d after noisy run",
			len(quiet), len(after))
	}
	var sawCompleted bool
	for _, ev := range after {
		if ev.Type == EventCompleted {
			sawCompleted = true
		}
	}
	if !sawCompleted {
		t.Error("quiet run's completion no longer in its history")
	}
}

// TestWatchRidesThroughServerRestart breaks the HTTP stream under an active
// Client.Watch, publishes events while it is down, and requires the watcher
// to see every one of them after its automatic Last-Event-ID reconnect.
func TestWatchRidesThroughServerRestart(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	handler := NewAPI(eng, nil).Handler()

	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l1.Addr().String()
	srv1 := &http.Server{Handler: handler}
	go srv1.Serve(l1)

	client := &Client{BaseURL: "http://" + addr}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	events, stop, err := client.Watch(ctx, "", 0)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	defer stop()

	runQuick(t, eng, "before-restart")
	awaitType := func(name string, typ EventType) {
		t.Helper()
		for ev := range events {
			if ev.Strategy == name && ev.Type == typ {
				return
			}
		}
		t.Fatalf("stream closed before %s/%s", name, typ)
	}
	awaitType("before-restart", EventCompleted)

	// Take the listener down; the in-flight stream breaks.
	srv1.Close()

	// Events published while the watcher is disconnected.
	runQuick(t, eng, "during-outage")

	// Bring the API back on the same address; Watch reconnects with
	// Last-Event-ID and replays the outage.
	var l2 net.Listener
	for i := 0; i < 50; i++ {
		if l2, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-listen on %s: %v", addr, err)
	}
	srv2 := &http.Server{Handler: handler}
	go srv2.Serve(l2)
	defer srv2.Close()

	var outage []Event
	for ev := range events {
		if ev.Strategy == "during-outage" {
			outage = append(outage, ev)
		}
		if ev.Type == EventCompleted && ev.Strategy == "during-outage" {
			break
		}
	}
	types := map[EventType]int{}
	for _, ev := range outage {
		types[ev.Type]++
	}
	if types[EventCompleted] != 1 || types[EventTransition] == 0 || types[EventStateEntered] == 0 {
		t.Fatalf("outage events incomplete after reconnect: %v", types)
	}
	for i := 1; i < len(outage); i++ {
		if outage[i].Seq <= outage[i-1].Seq {
			t.Fatalf("replayed outage events out of order: %+v", outage)
		}
	}
}

// TestSSEStreamBackfillsSlowSubscriberDrops forces the bus to drop on the
// stream's subscriber channel and requires the handler to backfill the gap
// from the ring before sending newer events.
func TestSSEStreamBackfillsSlowSubscriberDrops(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	srv := httptest.NewServer(NewAPI(eng, nil).Handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/api/v2/events/stream", nil)
	resp, err := httpx.StreamClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Publish a burst far larger than the subscriber buffer (256) while
	// the reader sleeps: the channel must drop, the stream must recover.
	const runs = 4
	for i := 0; i < runs; i++ {
		runQuick(t, eng, fmt.Sprintf("burst-%d", i))
	}
	time.Sleep(50 * time.Millisecond)
	lastSeq := eng.RecentEvents(1)[0].Seq

	var got []Event
	_ = httpx.ReadSSE(resp.Body, func(se httpx.SSEEvent) error {
		var ev Event
		if json.Unmarshal(se.Data, &ev) != nil {
			return nil
		}
		got = append(got, ev)
		if ev.Seq >= lastSeq {
			return context.Canceled
		}
		return nil
	})
	if len(got) == 0 {
		t.Fatal("no events received")
	}
	// Continuity: every gap must be either absent or covered by an
	// explicit drop marker (with a 1024-slot ring and ~a few hundred
	// events, everything should replay without markers).
	prev := int64(0)
	for _, ev := range got {
		if ev.Type == EventEventsDropped {
			prev = ev.Seq
			continue
		}
		if prev > 0 && ev.Seq != prev+1 {
			t.Fatalf("silent gap in stream: %d then %d", prev, ev.Seq)
		}
		prev = ev.Seq
	}
}

// stallWriter is a streaming ResponseWriter whose writes block until
// resume is closed, like a client that stops reading; stalled is closed
// when the first write blocks.
type stallWriter struct {
	header  http.Header
	resume  chan struct{}
	stalled chan struct{}
	once    sync.Once

	mu   sync.Mutex
	body strings.Builder
}

func newStallWriter() *stallWriter {
	return &stallWriter{header: http.Header{},
		resume: make(chan struct{}), stalled: make(chan struct{})}
}

func (w *stallWriter) Header() http.Header { return w.header }
func (w *stallWriter) WriteHeader(int)     {}
func (w *stallWriter) Flush()              {}

func (w *stallWriter) Write(p []byte) (int, error) {
	select {
	case <-w.resume:
	default:
		w.once.Do(func() { close(w.stalled) })
		<-w.resume
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

// seqs parses the stream written so far into its event sequence numbers.
func (w *stallWriter) seqs(t *testing.T) []int64 {
	t.Helper()
	w.mu.Lock()
	body := w.body.String()
	w.mu.Unlock()
	// A frame may be half written: parse only the complete ones.
	if end := strings.LastIndex(body, "\n\n"); end >= 0 {
		body = body[:end+2]
	} else {
		body = ""
	}
	var out []int64
	_ = httpx.ReadSSE(strings.NewReader(body), func(se httpx.SSEEvent) error {
		var ev Event
		if err := json.Unmarshal(se.Data, &ev); err != nil {
			t.Fatalf("undecodable frame %q: %v", se.Data, err)
		}
		if ev.Type == EventEventsDropped {
			t.Fatalf("unexpected drop marker: %s", ev.Detail)
		}
		out = append(out, ev.Seq)
		return nil
	})
	return out
}

// TestSSEStalledStreamReceivesBurstTail stalls a stream's writer while a
// burst far larger than its subscriber channel (256) is published, then
// lets it write again and publishes nothing more. The frames the bus
// dropped are the burst's tail, and no later event reveals the gap: the
// stream must still deliver every event, in order, once it drains its
// channel. With ?strategy= half of the burst belongs to another run and
// is filtered out.
func TestSSEStalledStreamReceivesBurstTail(t *testing.T) {
	const burst = 600
	for _, tc := range []struct{ name, strategy string }{
		{"all", ""},
		{"strategy", "burst"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New()
			defer eng.Shutdown()
			publish := func(run string) {
				eng.PublishBench(Event{Strategy: run, Type: EventCheckExecuted,
					State: "canary", Time: time.Now()})
			}
			w := newStallWriter()
			ctx, cancel := context.WithCancel(context.Background())
			req := httptest.NewRequest(http.MethodGet, "/api/v2/events/stream", nil).WithContext(ctx)
			done := make(chan struct{})
			go func() {
				defer close(done)
				eng.ServeEventStream(w, req, tc.strategy, 0)
			}()
			defer func() {
				cancel()
				<-done
			}()

			// Once the stream has subscribed, the first event's write
			// blocks it; the burst then fills its channel and the bus
			// drops the rest.
			for subscribed := false; !subscribed; time.Sleep(time.Millisecond) {
				eng.bus.mu.Lock()
				subscribed = len(eng.bus.frameSubs) == 1
				eng.bus.mu.Unlock()
			}
			publish("burst")
			<-w.stalled
			for i := 0; i < burst; i++ {
				run := "burst"
				if tc.strategy != "" && i%2 == 1 {
					run = "other"
				}
				publish(run)
			}
			var want []int64
			for _, ev := range eng.RecentEvents(0) {
				if tc.strategy == "" || ev.Strategy == tc.strategy {
					want = append(want, ev.Seq)
				}
			}
			close(w.resume)

			var got []int64
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				if got = w.seqs(t); len(got) >= len(want) {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if len(got) != len(want) {
				t.Fatalf("stream delivered %d of %d events; the burst's tail was held back", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d: seq %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// publishOnFlushWriter is a streaming ResponseWriter whose first Flush —
// the one that sends the stream's headers, which is when a client's Watch
// returns — runs onFirstFlush, so an event lands exactly in the window
// between the stream's subscription and its first read.
type publishOnFlushWriter struct {
	header       http.Header
	onFirstFlush func()
	flushed      bool

	mu   sync.Mutex
	body strings.Builder
}

func (w *publishOnFlushWriter) Header() http.Header { return w.header }
func (w *publishOnFlushWriter) WriteHeader(int)     {}

func (w *publishOnFlushWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.Write(p)
}

func (w *publishOnFlushWriter) Flush() {
	if !w.flushed {
		w.flushed = true
		w.onFirstFlush()
	}
}

func (w *publishOnFlushWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.body.String()
}

// TestSSELiveStreamKeepsEventsPublishedWhileStarting: an event published
// after the stream subscribed but before it began reading is live, not
// history, and must be delivered.
func TestSSELiveStreamKeepsEventsPublishedWhileStarting(t *testing.T) {
	eng := New()
	defer eng.Shutdown()
	w := &publishOnFlushWriter{header: http.Header{}, onFirstFlush: func() {
		eng.PublishBench(Event{Strategy: "starting", Type: EventStateEntered,
			State: "canary", Time: time.Now()})
	}}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/api/v2/events/stream", nil).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.ServeEventStream(w, req, "starting", 0)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.String(), "event: state_entered") && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
	if !strings.Contains(w.String(), "event: state_entered") {
		t.Fatalf("state_entered published while the stream started was dropped; stream:\n%s", w.String())
	}
}
