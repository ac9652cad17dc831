package bifrost

import (
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// TraceHeader carries "<trace>-<parent span>" in hex across HTTP hops. The
// driver sets it on every user request; the shop gateway and the proxies
// forward request headers, so the spans of one request share a trace id and
// each hop's span names the span that caused it.
const TraceHeader = "X-Bench-Trace"

// Span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer was created.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer records spans into a buffer allocated up front, so recording is
// an atomic increment and a store. Spans beyond its capacity are counted
// and dropped. A nil *Tracer records nothing and costs nothing, which is
// how the untraced run calls the same code.
type Tracer struct {
	base  time.Time
	ids   atomic.Uint64
	n     atomic.Int64
	spans []Span
}

// NewTracer allocates room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{base: time.Now(), spans: make([]Span, capacity)}
}

// Now reads the tracer clock (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// End records a root span named name that began at start (from Now).
func (t *Tracer) End(name string, start int64) {
	if t == nil {
		return
	}
	t.record(Span{ID: t.ids.Add(1), Name: name, Start: start, End: t.Now()})
}

func (t *Tracer) record(s Span) {
	if i := t.n.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = s
	}
}

// Spans returns the recorded spans. Call it once every recording
// goroutine has finished.
func (t *Tracer) Spans() []Span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// Dropped counts the spans that did not fit the buffer.
func (t *Tracer) Dropped() int64 {
	if d := t.n.Load() - int64(len(t.spans)); d > 0 {
		return d
	}
	return 0
}

// RequestHeader returns a TraceHeader value starting a new trace, for the
// driver's outgoing requests ("" on a nil tracer).
func (t *Tracer) RequestHeader() string {
	if t == nil {
		return ""
	}
	return formatTrace(t.ids.Add(1), 0)
}

// Handler wraps h so every request it serves is recorded as a span named
// name. A nil tracer returns h itself.
func (t *Tracer) Handler(name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return t.handler(func(*http.Request) string { return name }, h)
}

// ProxyHandler wraps a Bifrost proxy, naming each span by what the request
// did: proxy.route for routed traffic, proxy.admin_put and proxy.admin_get
// for engine pushes and reconcile polls of the routing config, proxy.admin
// for the other admin endpoints (metrics scrapes, health).
func (t *Tracer) ProxyHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return t.handler(proxySpanName, h)
}

func proxySpanName(r *http.Request) string {
	switch {
	case !strings.HasPrefix(r.URL.Path, "/_bifrost/"):
		return "proxy.route"
	case r.URL.Path == "/_bifrost/config" && r.Method == http.MethodPut:
		return "proxy.admin_put"
	case r.URL.Path == "/_bifrost/config" && r.Method == http.MethodGet:
		return "proxy.admin_get"
	default:
		return "proxy.admin"
	}
}

// MetricsHandler wraps the metrics provider's API: query requests (the
// engine's check executions) become metrics.query spans.
func (t *Tracer) MetricsHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return t.handler(func(r *http.Request) string {
		if r.URL.Path == "/api/v1/query" {
			return "metrics.query"
		}
		return "metrics.api"
	}, h)
}

func (t *Tracer) handler(name func(*http.Request) string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent := parseTrace(r.Header.Get(TraceHeader))
		id := t.ids.Add(1)
		if trace == 0 {
			trace = id
		}
		// Downstream hops that forward headers see this span as parent.
		r.Header.Set(TraceHeader, formatTrace(trace, id))
		start := t.Now()
		h.ServeHTTP(w, r)
		t.record(Span{Trace: trace, ID: id, Parent: parent, Name: name(r), Start: start, End: t.Now()})
	})
}

func formatTrace(trace, parent uint64) string {
	return strconv.FormatUint(trace, 16) + "-" + strconv.FormatUint(parent, 16)
}

func parseTrace(v string) (trace, parent uint64) {
	a, b, ok := strings.Cut(v, "-")
	if !ok {
		return 0, 0
	}
	trace, _ = strconv.ParseUint(a, 16, 64)
	parent, _ = strconv.ParseUint(b, 16, 64)
	return trace, parent
}

// spanIndex answers per-layer questions about a finished trace.
type spanIndex struct {
	spans    []Span
	byName   map[string][]int
	children map[uint64][]int
}

func indexSpans(spans []Span) *spanIndex {
	ix := &spanIndex{spans: spans, byName: map[string][]int{}, children: map[uint64][]int{}}
	for i, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], i)
		if s.Parent != 0 {
			ix.children[s.Parent] = append(ix.children[s.Parent], i)
		}
	}
	return ix
}

// count returns how many spans are named name.
func (ix *spanIndex) count(name string) int { return len(ix.byName[name]) }

// durations returns the durations of the spans named name.
func (ix *spanIndex) durations(name string) []time.Duration {
	out := make([]time.Duration, 0, len(ix.byName[name]))
	for _, i := range ix.byName[name] {
		out = append(out, time.Duration(ix.spans[i].End-ix.spans[i].Start))
	}
	return out
}

// selfTimes returns, for every span named name, its duration minus the part
// of its interval that its child spans cover.
func (ix *spanIndex) selfTimes(name string) []time.Duration {
	out := make([]time.Duration, 0, len(ix.byName[name]))
	var ivs [][2]int64
	for _, i := range ix.byName[name] {
		s := ix.spans[i]
		ivs = ivs[:0]
		for _, c := range ix.children[s.ID] {
			ivs = append(ivs, [2]int64{ix.spans[c].Start, ix.spans[c].End})
		}
		out = append(out, time.Duration(s.End-s.Start-covered(s.Start, s.End, ivs)))
	}
	return out
}

// childrenOf counts the spans whose parent is a span named name.
func (ix *spanIndex) childrenOf(name string) int {
	n := 0
	for _, i := range ix.byName[name] {
		n += len(ix.children[ix.spans[i].ID])
	}
	return n
}

// covered returns the length of [start, end) covered by the union of ivs.
// It reorders ivs.
func covered(start, end int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := start
	for _, iv := range ivs {
		lo, hi := max(iv[0], cur), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}
