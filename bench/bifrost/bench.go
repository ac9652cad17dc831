package bifrost

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// Options selects and sizes one workload run.
type Options struct {
	Workload string
	// Seed drives every generated input: request mix, users, products,
	// proxy and shop randomness. It never changes what is measured.
	Seed int64
	// Seconds is the length of the measured window; every phase of a
	// workload is a fixed share of it.
	Seconds float64
	// Trace records spans and reports per-layer metrics instead of
	// end-to-end ones.
	Trace bool
	// SpansDir, when set, receives the traced run's spans as JSON.
	SpansDir string
}

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, so one slow build does not move it.
const setupRepeats = 9

// Result is one workload run's outcome.
type Result struct {
	// Attempted counts the workload's operations; Failed those that erred
	// or ended wrong.
	Attempted, Failed int
	// Gates names every correctness check that failed.
	Gates []string
	// Values holds every measured metric by name.
	Values map[string]float64
}

// Correct reports whether every correctness gate passed.
func (r *Result) Correct() bool { return len(r.Gates) == 0 }

// Metrics returns the catalog this run reports in its result line:
// per-layer when traced, end-to-end otherwise. Figures[o.Workload] come
// with either.
func (o Options) Metrics() []Metric {
	if o.Trace {
		return PerLayer
	}
	return EndToEnd
}

// run is the state one workload run shares with the harness.
type run struct {
	opts Options
	tr   *Tracer
	rng  *rand.Rand
	res  *Result
	// window is the measured interval; per-second span rates use it.
	window time.Duration
	// late is how far the open-loop dispatcher ran behind schedule.
	late []time.Duration
	// expectedChecks is how many check executions the strategies specify.
	expectedChecks int
}

func (r *run) set(name string, v float64) { r.res.Values[name] = v }

// fail records a failed correctness gate.
func (r *run) fail(format string, args ...any) {
	r.res.Gates = append(r.res.Gates, fmt.Sprintf(format, args...))
}

// scaled returns share of the measured window.
func (r *run) scaled(share float64) time.Duration {
	return time.Duration(share * r.opts.Seconds * float64(time.Second))
}

// setLatency reports the median and 90th percentile of ds in ms, and
// returns ds in ms, sorted, for the workload's figures.
func (r *run) setLatency(ds []time.Duration) []float64 {
	ms := sortedIn(ds, time.Millisecond)
	r.set("latency_p50_ms", quantile(ms, 0.5))
	r.set("latency_p90_ms", quantile(ms, 0.9))
	return ms
}

// setQuantiles reports the p50 and p99 of ds in µs as prefix.p50/.p99.
func (r *run) setQuantiles(prefix string, ds []time.Duration) {
	us := sortedIn(ds, time.Microsecond)
	r.set(prefix+".p50", quantile(us, 0.5))
	r.set(prefix+".p99", quantile(us, 0.99))
}

var workloadFuncs = map[string]func(context.Context, *run) error{
	"release": runRelease,
	"proxy":   runProxy,
	"events":  runEvents,
	"control": runControl,
}

// spanCapacity sizes the traced run's span buffer per measured second.
var spanCapacity = map[string]int{
	"release": 5_000,
	"proxy":   35_000,
	"events":  30_000,
	"control": 40_000,
}

// Run executes one workload in this process.
func Run(ctx context.Context, opts Options) (*Result, error) {
	fn, ok := workloadFuncs[opts.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", opts.Workload, Workloads)
	}
	if opts.Seconds <= 0 {
		return nil, fmt.Errorf("seconds must be positive")
	}
	r := &run{
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		res:  &Result{Values: map[string]float64{}},
	}
	var peaks *peakSampler
	if opts.Trace {
		r.tr = NewTracer(int(float64(spanCapacity[opts.Workload])*opts.Seconds) + 10_000)
		peaks = startPeakSampler(50 * time.Millisecond)
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	if err := fn(ctx, r); err != nil {
		if peaks != nil {
			peaks.Stop()
		}
		return nil, fmt.Errorf("%s: %w", opts.Workload, err)
	}

	for _, m := range slices.Concat(EndToEnd, Figures[opts.Workload]) {
		if _, ok := r.res.Values[m.Name]; !ok {
			return nil, fmt.Errorf("%s: %s was not measured", opts.Workload, m.Name)
		}
	}
	if !opts.Trace {
		return r.res, nil
	}
	defer func() {
		for _, m := range PerLayer {
			if _, ok := r.res.Values[m.Name]; !ok {
				r.set(m.Name, 0)
			}
		}
	}()
	peaks.Stop()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	r.set("proc.cpu_s", (cpuTime() - cpu0).Seconds())
	r.set("proc.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	r.set("proc.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	r.set("proc.goroutines_peak", float64(peaks.goroutines))
	r.set("proc.heap_peak_mb", float64(peaks.heapBytes)/(1<<20))
	late := sortedIn(r.late, time.Millisecond)
	r.set("driver.late_ms.p99", quantile(late, 0.99))
	r.spanMetrics()
	if opts.SpansDir != "" {
		if err := r.writeSpans(); err != nil {
			return nil, err
		}
	}
	return r.res, nil
}

// spanMetrics derives the per-layer metrics the spans answer. Layers a
// workload does not exercise have no spans and read 0.
func (r *run) spanMetrics() {
	ix := indexSpans(r.tr.Spans())
	r.setQuantiles("proxy.self_us", ix.selfTimes("proxy.route"))
	if n := ix.count("proxy.route"); n > 0 {
		r.set("proxy.upstream_per_request", float64(ix.childrenOf("proxy.route"))/float64(n))
	}
	r.setQuantiles("proxy.set_config_us", ix.durations("proxy.set_config"))
	r.setQuantiles("proxy.admin_put_us", ix.durations("proxy.admin_put"))
	r.set("proxy.admin_puts", float64(ix.count("proxy.admin_put")))
	r.set("proxy.admin_gets", float64(ix.count("proxy.admin_get")))
	r.setQuantiles("shop.serve_us", ix.durations("shop.serve"))
	r.setQuantiles("metrics.query_us", ix.durations("metrics.query"))
	if r.window > 0 {
		r.set("metrics.queries_per_s", float64(ix.count("metrics.query"))/r.window.Seconds())
	}
	if r.expectedChecks > 0 {
		r.set("metrics.check_exec_ratio", float64(ix.count("metrics.query"))/float64(r.expectedChecks))
	}
	scrape := sortedIn(ix.durations("metrics.scrape"), time.Microsecond)
	r.set("metrics.scrape_us.p50", quantile(scrape, 0.5))
	r.setQuantiles("engine.publish_us", ix.durations("engine.publish"))
	r.setQuantiles("engine.enact_us", ix.durations("engine.enact"))
	r.setQuantiles("dsl.compile_us", ix.durations("dsl.compile"))
	r.set("trace.spans", float64(len(ix.spans)))
	r.set("trace.dropped_spans", float64(r.tr.Dropped()))
}

func (r *run) writeSpans() error {
	if err := os.MkdirAll(r.opts.SpansDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.opts.SpansDir, fmt.Sprintf("%s-seed%d.json", r.opts.Workload, r.opts.Seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.tr.Spans()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// measureSetup builds a deployment setupRepeats times, closing all but the
// last, and returns the last with the median build time in seconds. Each
// build starts after a garbage collection, so the previous teardown's
// garbage is not collected on its clock.
func measureSetup[T interface{ close() }](build func() (T, error)) (T, float64, error) {
	var env T
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			env.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if env, err = build(); err != nil {
			return env, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	return env, quantile(times, 0.5), nil
}
