// Benchmarks regenerating the paper's evaluation (§5): one benchmark per
// table and figure, plus ablation benches for the design decisions called
// out in docs/architecture.md. The macro benches run compressed phase plans (seconds
// instead of minutes) and report the paper's metrics as custom units:
//
//	Table 1 / Figure 6:  proxy overhead in ms (active vs baseline means)
//	Figures 7 & 8:       engine CPU % and enactment delay vs N strategies
//	Figures 9 & 10:      engine CPU % and enactment delay vs N checks
//
// Full paper-scale runs (with figure series printed) live in
// cmd/benchrunner (-paper for the paper's phase durations).
package bifrost

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/experiments"
	"bifrost/internal/loadgen"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/yaml"
)

// benchPlan compresses the §5.1 schedule enough for iterated benchmarks.
func benchPlan() experiments.PhasePlan {
	return experiments.PhasePlan{
		Canary: 1200 * time.Millisecond, Dark: 1200 * time.Millisecond,
		AB:          1200 * time.Millisecond,
		RolloutStep: 150 * time.Millisecond, RolloutStepPct: 25,
		CheckInterval: 300 * time.Millisecond, CheckCount: 3,
	}
}

// BenchmarkTable1ResponseTimes reproduces Table 1: per-phase response time
// statistics for baseline / inactive / active. One benchmark iteration is
// one full three-variation experiment; the headline metrics are reported
// as ms_baseline / ms_inactive / ms_active and overhead_ms.
func BenchmarkTable1ResponseTimes(b *testing.B) {
	cfg := experiments.EndUserConfig{
		Plan: benchPlan(), RPS: 30, RampUp: time.Second, Users: 10, Seed: 7,
	}
	for i := 0; i < b.N; i++ {
		t1, err := experiments.RunTable1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		means := map[experiments.Variation]float64{}
		for v, r := range t1.Results {
			var sum float64
			var n int
			for _, p := range r.Phases {
				if p.Stats.Count > 0 {
					sum += p.Stats.Mean
					n++
				}
			}
			if n > 0 {
				means[v] = sum / float64(n)
			}
		}
		b.ReportMetric(means[experiments.Baseline], "ms_baseline")
		b.ReportMetric(means[experiments.Inactive], "ms_inactive")
		b.ReportMetric(means[experiments.Active], "ms_active")
		b.ReportMetric(means[experiments.Active]-means[experiments.Baseline], "overhead_ms")
	}
}

// BenchmarkFigure6EndUserOverhead reproduces Figure 6's active variation:
// the moving-average response time during the four-phase strategy. The
// per-phase means are reported so the dark-launch bump and A/B dip are
// visible in benchmark output.
func BenchmarkFigure6EndUserOverhead(b *testing.B) {
	cfg := experiments.EndUserConfig{
		Plan: benchPlan(), RPS: 30, RampUp: time.Second, Users: 10, Seed: 11,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEndUser(context.Background(), experiments.Active, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range res.Phases {
			switch p.Phase {
			case "Canary":
				b.ReportMetric(p.Stats.Mean, "ms_canary")
			case "Dark Launch":
				b.ReportMetric(p.Stats.Mean, "ms_dark")
			case "A/B Test":
				b.ReportMetric(p.Stats.Mean, "ms_ab")
			case "Gradual Rollout":
				b.ReportMetric(p.Stats.Mean, "ms_rollout")
			}
		}
	}
}

// BenchmarkFigure7ParallelStrategies reproduces Figure 7 (engine CPU vs
// parallel strategies) at a single representative N per run; sweep with
// cmd/benchrunner for the full curve.
func BenchmarkFigure7ParallelStrategies(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("strategies-%d", n), func(b *testing.B) {
			plan := experiments.PhasePlan{
				Canary: time.Second, Dark: time.Second, AB: time.Second,
				RolloutStep: 200 * time.Millisecond, RolloutStepPct: 50,
				CheckInterval: 250 * time.Millisecond, CheckCount: 3,
			}
			for i := 0; i < b.N; i++ {
				points, err := experiments.RunParallelStrategies(context.Background(),
					experiments.ParallelStrategiesConfig{Counts: []int{n}, Plan: plan})
				if err != nil {
					b.Fatal(err)
				}
				p := points[0]
				if p.Failed > 0 {
					b.Fatalf("%d runs failed", p.Failed)
				}
				b.ReportMetric(p.CPU.Median, "cpu_median_%")
				b.ReportMetric(p.DelayMeanSeconds*1000, "delay_ms")
			}
		})
	}
}

// BenchmarkFigure8EnactmentDelay reproduces Figure 8: the per-strategy
// enactment delay as parallelism grows (same sweep, delay-focused metric).
func BenchmarkFigure8EnactmentDelay(b *testing.B) {
	plan := experiments.PhasePlan{
		Canary: 800 * time.Millisecond, Dark: 800 * time.Millisecond,
		AB:          800 * time.Millisecond,
		RolloutStep: 200 * time.Millisecond, RolloutStepPct: 50,
		CheckInterval: 200 * time.Millisecond, CheckCount: 3,
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunParallelStrategies(context.Background(),
			experiments.ParallelStrategiesConfig{Counts: []int{8}, Plan: plan})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].DelayMeanSeconds*1000, "delay_mean_ms")
		b.ReportMetric(points[0].DelaySDSeconds*1000, "delay_sd_ms")
	}
}

// BenchmarkFigure9ParallelChecks reproduces Figure 9: engine CPU vs number
// of parallel checks (8·n checks per phase).
func BenchmarkFigure9ParallelChecks(b *testing.B) {
	for _, n := range []int{1, 5, 10} {
		b.Run(fmt.Sprintf("checks-%d", 8*n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				points, err := experiments.RunParallelChecks(context.Background(),
					experiments.ParallelChecksConfig{
						GroupCounts:   []int{n},
						PhaseDuration: 1200 * time.Millisecond,
						CheckInterval: 300 * time.Millisecond,
					})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(points[0].CPU.Median, "cpu_median_%")
			}
		})
	}
}

// BenchmarkFigure10CheckDelay reproduces Figure 10: enactment delay of a
// single strategy as its parallel check count grows.
func BenchmarkFigure10CheckDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.RunParallelChecks(context.Background(),
			experiments.ParallelChecksConfig{
				GroupCounts:   []int{8}, // 64 checks
				PhaseDuration: 1200 * time.Millisecond,
				CheckInterval: 300 * time.Millisecond,
			})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].DelayMeanSeconds*1000, "delay_ms")
	}
}

// --- Micro and ablation benchmarks -----------------------------------------

func benchBackends(b *testing.B, n int) []proxy.Backend {
	b.Helper()
	backends := make([]proxy.Backend, 0, n)
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write([]byte("ok"))
			}))
		b.Cleanup(srv.Close)
		backends = append(backends, proxy.Backend{
			Version: fmt.Sprintf("v%d", i), URL: srv.URL, Weight: 1,
		})
	}
	return backends
}

// BenchmarkProxyForwarding measures the per-request cost of one proxy hop —
// the mechanism behind the paper's 8 ms overhead claim.
func BenchmarkProxyForwarding(b *testing.B) {
	backends := benchBackends(b, 2)
	p, err := proxy.New("bench", proxy.Config{
		Service: "bench", Generation: 1, Backends: backends,
	}, proxy.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	front := httptest.NewServer(p)
	defer front.Close()

	client := front.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(front.URL + "/x")
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkAblationCookieVsHeaderRouting quantifies the paper's remark that
// "cookie-based routing ... is generally slower than a header-based routing
// would be".
func BenchmarkAblationCookieVsHeaderRouting(b *testing.B) {
	for _, mode := range []string{"cookie", "header"} {
		b.Run(mode, func(b *testing.B) {
			backends := benchBackends(b, 2)
			cfg := proxy.Config{
				Service: "bench", Generation: 1, Backends: backends, Sticky: mode == "cookie",
			}
			if mode == "header" {
				cfg.Mode = "header"
				cfg.Header = "X-Group"
			}
			p, err := proxy.New("bench", cfg, proxy.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			front := httptest.NewServer(p)
			defer front.Close()

			req, _ := http.NewRequest(http.MethodGet, front.URL+"/x", nil)
			if mode == "header" {
				req.Header.Set("X-Group", "v0")
			} else {
				req.AddCookie(&http.Cookie{Name: proxy.CookieName,
					Value: "123e4567-e89b-42d3-a456-426614174000"})
			}
			client := front.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Do(req)
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkAblationShadowing measures the client-visible cost of dark
// launching: 0% vs 100% duplication on the same proxy.
func BenchmarkAblationShadowing(b *testing.B) {
	for _, shadowPct := range []float64{0, 100} {
		b.Run(fmt.Sprintf("shadow-%.0f%%", shadowPct), func(b *testing.B) {
			backends := benchBackends(b, 2)
			cfg := proxy.Config{
				Service: "bench", Generation: 1,
				Backends: []proxy.Backend{
					{Version: backends[0].Version, URL: backends[0].URL, Weight: 1},
					{Version: backends[1].Version, URL: backends[1].URL, Weight: 0},
				},
			}
			if shadowPct > 0 {
				cfg.Shadows = []proxy.Shadow{{Target: backends[1].Version, Percent: shadowPct}}
			}
			p, err := proxy.New("bench", cfg, proxy.WithSeed(1))
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			front := httptest.NewServer(p)
			defer front.Close()

			client := front.Client()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(front.URL + "/x")
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkDSLCompile measures strategy compilation (parse + compile +
// validate) for the full §5.1 release strategy.
func BenchmarkDSLCompile(b *testing.B) {
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{
		WithProxies: true, Products: 4, Users: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	src := experiments.ReleaseStrategyYAML("bench", tb, experiments.QuickPhases())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dsl.Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYAMLParse measures the DSL host-language parser alone.
func BenchmarkYAMLParse(b *testing.B) {
	tb, err := experiments.NewTestbed(experiments.TestbedConfig{
		WithProxies: true, Products: 4, Users: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer tb.Close()
	src := experiments.ReleaseStrategyYAML("bench", tb, experiments.QuickPhases())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := yaml.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateTransition measures the model's δ evaluation: check output
// mapping, weighted aggregation, range lookup.
func BenchmarkStateTransition(b *testing.B) {
	s := core.RunningExample(time.Hour)
	state, _ := s.Automaton.State("b")
	results := []int{96}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mapped, err := state.Checks[0].MapOutcome(results[0])
		if err != nil {
			b.Fatal(err)
		}
		outcome, err := state.Outcome([]int{mapped})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := state.NextState(outcome); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsQueryUnderLoad measures the metrics provider's query path
// with a populated store, the hot loop of every check execution.
func BenchmarkMetricsQueryUnderLoad(b *testing.B) {
	store := metrics.NewStore()
	now := time.Now()
	for i := 0; i < 100; i++ {
		for v := 0; v < 4; v++ {
			store.Append("shop_requests_total",
				metrics.Labels{"version": fmt.Sprintf("v%d", v)},
				float64(i), now.Add(time.Duration(i)*time.Second))
		}
	}
	at := now.Add(101 * time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Query(`sum(shop_requests_total{version="v1"})`, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoadgenStats measures the harness's own statistics pipeline to
// show it is negligible next to the measured requests.
func BenchmarkLoadgenStats(b *testing.B) {
	samples := make([]loadgen.Sample, 10000)
	for i := range samples {
		samples[i] = loadgen.Sample{
			Offset:  time.Duration(i) * time.Millisecond,
			Latency: time.Duration(20+i%17) * time.Millisecond,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = loadgen.StatsOf(samples)
	}
}

// BenchmarkAblationProxyChainDepth measures how per-hop overhead stacks
// when a request traverses 0, 1, or 2 Bifrost proxies — the paper's
// one-proxy-per-service design means deep call chains pay one hop per
// service (product → search in the case study traverses two).
func BenchmarkAblationProxyChainDepth(b *testing.B) {
	origin := httptest.NewServer(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write([]byte("ok"))
		}))
	defer origin.Close()

	buildChain := func(b *testing.B, depth int) string {
		url := origin.URL
		for i := 0; i < depth; i++ {
			p, err := proxy.New(fmt.Sprintf("hop%d", i), proxy.Config{
				Service: fmt.Sprintf("hop%d", i), Generation: 1,
				Backends: []proxy.Backend{{Version: "v", URL: url, Weight: 1}},
			}, proxy.WithSeed(int64(i)))
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(p.Close)
			srv := httptest.NewServer(p)
			b.Cleanup(srv.Close)
			url = srv.URL
		}
		return url
	}

	for _, depth := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("hops-%d", depth), func(b *testing.B) {
			url := buildChain(b, depth)
			client := &http.Client{Timeout: 10 * time.Second}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Get(url + "/x")
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
	}
}

// BenchmarkAblationCheckTimerFanout measures the engine-side cost of the
// model's one-timer-per-check design (Figure 3): wall time to run a state
// whose N checks each tick on an independent timer.
func BenchmarkAblationCheckTimerFanout(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("checks-%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := engine.New()
				checks := make([]core.Check, n)
				for c := range checks {
					checks[c] = core.Check{
						Name: fmt.Sprintf("c%d", c), Kind: core.BasicCheck,
						Eval:     core.ConstEvaluator(true),
						Interval: 10 * time.Millisecond, Executions: 5,
						Thresholds: []int{4}, Outputs: []int{0, 1},
					}
				}
				s := &core.Strategy{
					Name: "fanout",
					Services: []core.Service{{
						Name:     "svc",
						Versions: []core.Version{{Name: "v", Endpoint: "h:1"}},
					}},
					Automaton: core.Automaton{
						Start: "probe", Finals: []string{"end"},
						States: []core.State{
							{ID: "probe", Checks: checks,
								Transitions: []string{"end"},
								Routing: []core.RoutingConfig{{
									Service: "svc", Weights: map[string]float64{"v": 1},
								}}},
							{ID: "end"},
						},
					},
				}
				run, err := eng.Enact(s)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				if err := run.Wait(ctx); err != nil {
					cancel()
					b.Fatal(err)
				}
				cancel()
				delay := run.Status().Delay()
				b.ReportMetric(float64(delay.Microseconds())/1000, "sched_delay_ms")
				eng.Shutdown()
			}
		})
	}
}

// BenchmarkProxyRoutingParallel measures routing throughput under
// contention with the network removed (stub round tripper): many
// goroutines in ServeHTTP at once, sticky and non-sticky, which is the
// regime the lock-free snapshot data plane is built for. The in-package
// contention benches live in internal/proxy (BenchmarkServeHTTPParallel,
// BenchmarkServeHTTPUnderReconfiguration, BenchmarkStickyStore).
func BenchmarkProxyRoutingParallel(b *testing.B) {
	for _, sticky := range []bool{false, true} {
		name := "weighted"
		if sticky {
			name = "sticky"
		}
		b.Run(name, func(b *testing.B) {
			p, err := proxy.New("bench", proxy.Config{
				Service: "bench", Generation: 1, Sticky: sticky,
				Backends: []proxy.Backend{
					{Version: "v1", URL: "http://v1.invalid", Weight: 90},
					{Version: "v2", URL: "http://v2.invalid", Weight: 10},
				},
			}, proxy.WithSeed(1), proxy.WithTransport(nullTransport{}))
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			var id atomic.Int64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				cookie := fmt.Sprintf("123e4567-e89b-42d3-a456-4266141%05d", id.Add(1))
				req, _ := http.NewRequest(http.MethodGet, "http://front/x", nil)
				req.AddCookie(&http.Cookie{Name: proxy.CookieName, Value: cookie})
				for pb.Next() {
					p.ServeHTTP(nullResponseWriter{h: http.Header{}}, req)
				}
			})
		})
	}
}

// nullTransport answers round trips in-process so the benchmark isolates
// the proxy's own per-request work.
type nullTransport struct{}

func (nullTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Proto: "HTTP/1.1",
		ProtoMajor: 1, ProtoMinor: 1, Header: make(http.Header),
		Body: http.NoBody, Request: r}, nil
}

type nullResponseWriter struct{ h http.Header }

func (w nullResponseWriter) Header() http.Header         { return w.h }
func (w nullResponseWriter) WriteHeader(int)             {}
func (w nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
