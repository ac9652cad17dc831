// Package bifrost is the Bifrost benchmark: four workloads that drive the
// engine, proxy, metrics, DSL, and shop packages from outside, through
// their public entry points, and report end-to-end metrics (untraced run)
// or per-layer metrics derived from spans (traced run).
//
// Every workload reports every metric of its run mode. A per-layer metric
// of a layer the workload does not exercise reads 0.
package bifrost

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
)

// Metric names one reported number with its unit and the direction in
// which it improves.
type Metric struct {
	Name   string
	Unit   string
	Better string
}

// EndToEnd are the metrics a user of Bifrost sees. They come only from the
// untraced run and are reported on every workload; bench/README.md says what
// an operation is on each.
var EndToEnd = []Metric{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p90_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"mem_peak_mb", "MB", "lower"},
}

// Figures are what each workload reports beside the end-to-end metrics, in
// both run modes, under names that say what was measured: the request,
// event, and run figures the end-to-end metrics generalize, the error and
// loss ratios behind the correctness gates (0 on a correct run), and the
// saturation figures. They are printed, not compared between builds.
var Figures = map[string][]Metric{
	"release": {
		{"req_p50_ms", "ms", "lower"},
		{"req_p99_ms", "ms", "lower"},
		{"req_error_ratio", "ratio", "lower"},
		{"run_failure_ratio", "ratio", "lower"},
	},
	"proxy": {
		{"req_p50_ms", "ms", "lower"},
		{"req_p99_ms", "ms", "lower"},
		{"req_error_ratio", "ratio", "lower"},
		{"req_max_rps", "req/s", "higher"},
	},
	"events": {
		{"event_lag_p50_ms", "ms", "lower"},
		{"event_lag_p99_ms", "ms", "lower"},
		{"event_loss_ratio", "ratio", "lower"},
		{"events_per_s", "events/s", "higher"},
		{"burst_loss_ratio", "ratio", "lower"},
	},
	"control": {
		{"enact_delay_p50_ms", "ms", "lower"},
		{"enact_delay_p90_ms", "ms", "lower"},
		{"cpu_ms_per_run", "ms", "lower"},
		{"run_failure_ratio", "ratio", "lower"},
		{"recover_s", "s", "lower"},
	},
}

// PerLayer are the metrics of single layers, from the traced run.
var PerLayer = []Metric{
	{"driver.late_ms.p99", "ms", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.goroutines_peak", "count", "lower"},
	{"proc.heap_peak_mb", "MB", "lower"},
	{"proxy.self_us.p50", "us", "lower"},
	{"proxy.self_us.p99", "us", "lower"},
	{"proxy.set_config_us.p50", "us", "lower"},
	{"proxy.set_config_us.p99", "us", "lower"},
	{"proxy.upstream_per_request", "ratio", "lower"},
	{"proxy.allocs_per_request", "count", "lower"},
	{"proxy.admin_put_us.p50", "us", "lower"},
	{"proxy.admin_put_us.p99", "us", "lower"},
	{"proxy.admin_puts", "count", "lower"},
	{"proxy.admin_gets", "count", "lower"},
	{"shop.serve_us.p50", "us", "lower"},
	{"shop.serve_us.p99", "us", "lower"},
	{"metrics.query_us.p50", "us", "lower"},
	{"metrics.query_us.p99", "us", "lower"},
	{"metrics.queries_per_s", "1/s", "higher"},
	{"metrics.check_exec_ratio", "ratio", "higher"},
	{"metrics.scrape_us.p50", "us", "lower"},
	{"engine.publish_us.p50", "us", "lower"},
	{"engine.publish_us.p99", "us", "lower"},
	{"engine.allocs_per_event", "count", "lower"},
	{"engine.enact_us.p50", "us", "lower"},
	{"engine.enact_us.p99", "us", "lower"},
	{"sse.backfilled_frames", "count", "lower"},
	{"sse.dropped_markers", "count", "lower"},
	{"journal.bytes_per_event", "B", "lower"},
	{"journal.records", "count", "lower"},
	{"journal.compactions", "count", "lower"},
	{"journal.bytes_per_run", "B", "lower"},
	{"journal.replayed_records", "count", "lower"},
	{"dsl.compile_us.p50", "us", "lower"},
	{"dsl.compile_us.p99", "us", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.dropped_spans", "count", "lower"},
}

// Workloads lists the workloads in the order a full run executes them.
var Workloads = []string{"release", "proxy", "events", "control"}

// CheckBenchmarkJSON reports every way the BENCHMARK.json document raw
// disagrees with the workloads and metrics this code runs and reports, so
// the two cannot drift apart unnoticed: the command refuses to run on a
// mismatch.
func CheckBenchmarkJSON(raw []byte) error {
	type metric struct{ Name, Unit, Better string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var errs []error
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads) {
		errs = append(errs, fmt.Errorf("BENCHMARK.json lists workloads %v, the code runs %v", names, Workloads))
	}
	check := func(kind string, got []metric, want []Metric) {
		if len(got) != len(want) {
			errs = append(errs, fmt.Errorf("BENCHMARK.json lists %d %s metrics, the code reports %d", len(got), kind, len(want)))
			return
		}
		for i, m := range want {
			if g := got[i]; g != (metric{m.Name, m.Unit, m.Better}) {
				errs = append(errs, fmt.Errorf("BENCHMARK.json %s[%d] is %+v, the code reports %+v", kind, i, g, m))
			}
		}
	}
	check("end_to_end", doc.EndToEnd, EndToEnd)
	check("per_layer", doc.PerLayer, PerLayer)
	return errors.Join(errs...)
}
