package bifrost

import (
	"context"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload at toy scale, traced so both
// metric catalogs are computed, and checks that every correctness gate
// passes and every metric is emitted with a unit. It asserts no timings.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w, func(t *testing.T) {
			res, err := Run(context.Background(), Options{Workload: w, Seed: 7, Seconds: 1, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range res.Gates {
				t.Errorf("gate failed: %s", g)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, m := range slices.Concat(EndToEnd, PerLayer, Figures[w]) {
				if _, ok := res.Values[m.Name]; !ok || m.Unit == "" {
					t.Errorf("metric %s not emitted with a unit", m.Name)
				}
			}
			for _, m := range Figures[w] {
				if strings.HasSuffix(m.Name, "_ratio") && m.Name != "burst_loss_ratio" && res.Values[m.Name] != 0 {
					t.Errorf("%s = %v on a correct run", m.Name, res.Values[m.Name])
				}
			}
			for _, m := range EndToEnd {
				if res.Values[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Values[m.Name])
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json, which the
// benchmark's users read, in step with the metrics the code reports.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBenchmarkJSON(raw); err != nil {
		t.Error(err)
	}
	drifted := strings.Replace(string(raw), `"latency_p90_ms"`, `"latency_p95_ms"`, 1)
	if CheckBenchmarkJSON([]byte(drifted)) == nil {
		t.Error("a renamed metric went unnoticed")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Trace: 1, ID: 1, Name: "proxy.route", Start: 0, End: 100},
		// Overlapping children count once; a child running past its
		// parent's end counts only up to it.
		{Trace: 1, ID: 2, Parent: 1, Name: "backend", Start: 10, End: 30},
		{Trace: 1, ID: 3, Parent: 1, Name: "backend", Start: 20, End: 50},
		{Trace: 1, ID: 4, Parent: 1, Name: "backend", Start: 90, End: 120},
		// Another trace's span inside the interval is not a child.
		{Trace: 2, ID: 5, Name: "backend", Start: 60, End: 70},
		{Trace: 3, ID: 6, Name: "proxy.route", Start: 200, End: 210},
	}
	ix := indexSpans(spans)
	got := ix.selfTimes("proxy.route")
	if want := []time.Duration{50, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	if n := ix.childrenOf("proxy.route"); n != 3 {
		t.Errorf("children of proxy.route = %d, want 3", n)
	}
}

func TestTraceHeaderLinksHops(t *testing.T) {
	tr := NewTracer(8)
	trace, parent := parseTrace(tr.RequestHeader())
	if trace == 0 || parent != 0 {
		t.Fatalf("driver header = %x-%x, want a new trace without parent", trace, parent)
	}
	if tr2, p2 := parseTrace(formatTrace(trace, 42)); tr2 != trace || p2 != 42 {
		t.Errorf("round trip = %x-%x", tr2, p2)
	}
	if _, p := parseTrace("garbage"); p != 0 {
		t.Errorf("malformed header parsed to parent %x", p)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	const n, period = 12, 2 * time.Millisecond
	start := time.Now().Add(time.Millisecond)
	var intended []time.Time
	late := openLoop(context.Background(), start, evenly(n, period), func(i int, at time.Time) {
		intended = append(intended, at)
		if i == 4 {
			time.Sleep(10 * period) // a stalled dispatcher
		}
	})
	if len(late) != n || len(intended) != n {
		t.Fatalf("dispatched %d (late %d), want %d", len(intended), len(late), n)
	}
	for i, at := range intended {
		if want := start.Add(time.Duration(i) * period); !at.Equal(want) {
			t.Errorf("operation %d intended at %v, want %v", i, at.Sub(start), want.Sub(start))
		}
	}
	// The stall delays the next dispatch by most of its length, and the
	// schedule does not shift to hide it.
	if late[5] < 8*period {
		t.Errorf("lateness after a %v stall = %v", 10*period, late[5])
	}

	// A jittered schedule keeps the rate: one operation in each slot.
	offsets := jittered(rand.New(rand.NewSource(1)), 1000, period)
	for i, off := range offsets {
		if slot := time.Duration(i) * period; off < slot || off >= slot+period {
			t.Fatalf("operation %d at %v, outside its slot [%v, %v)", i, off, slot, slot+period)
		}
	}
}

func TestSSEStreamParsesFrames(t *testing.T) {
	// Stream 0 times events 0, 8, 16, ...
	s := newSSEStream(0, time.Millisecond, 20)
	s.openStart = time.Now()
	write := func(parts ...string) {
		for _, p := range parts {
			if _, err := s.Write([]byte(p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("event: check_executed\nid: 1\ndata: {\"seq\":1,\"outcome\":1}\n\n")
	// A replayed frame arrives in several writes.
	write("event: check_executed\n", "id: 2\n", "data: {\"seq\":2,\"outcome\":9}\n\n")
	write("event: events_dropped\nid: 2\ndata: {}\n\n")
	write("event: check_executed\nid: 2\ndata: {\"seq\":2,\"outcome\":9}\n\n")
	// Event 25 is past the open loop's 20: a burst event.
	write("event: check_executed\nid: 3\ndata: {\"seq\":3,\"outcome\":26}\n\n")
	write("event: completed\nid: 4\ndata: {\"seq\":4}\n\n")
	if len(s.lags) != 3 || s.replayed != 1 || s.markers != 1 {
		t.Errorf("lags %d, replayed %d, markers %d; want 3, 1, 1", len(s.lags), s.replayed, s.markers)
	}
	if len(s.disorder) != 1 {
		t.Errorf("disorder = %v, want the repeated seq 2", s.disorder)
	}
	if s.openGot.Load() != 2 || !s.received(0) || !s.received(8) || s.received(1) {
		t.Errorf("open-loop events received: %d, want 0 and 8", s.openGot.Load())
	}
	if s.burstFrames != 1 || s.terminal.Load() == 0 {
		t.Errorf("burst frames %d, terminal %d", s.burstFrames, s.terminal.Load())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if sp := SpreadOf([]float64{2, 2, 2}); sp.Median != 2 || sp.IQR != 0 || sp.CV != 0 {
		t.Errorf("spread of a constant = %+v", sp)
	}
}
