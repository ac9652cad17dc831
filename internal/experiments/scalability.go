package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
	"bifrost/internal/sysmon"
	"bifrost/internal/target"
)

// CPUStats summarizes the engine-process CPU utilization samples collected
// during a sweep step — the data behind each boxplot of Figures 7 and 9.
// Values are percent of one core (matching the paper's single-core VMs).
type CPUStats struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
}

// SweepPoint is one x-position of a scalability figure.
type SweepPoint struct {
	// N is the number of parallel strategies (Fig 7/8) or checks (9/10).
	N int
	// CPU is the utilization boxplot data.
	CPU CPUStats
	// DelayMeanSeconds/DelaySDSeconds are the enactment delay beyond the
	// specified execution time (Fig 8/10).
	DelayMeanSeconds float64
	DelaySDSeconds   float64
	// Completed/Failed count strategy outcomes at this step.
	Completed int
	Failed    int
}

// cpuSampler samples process CPU utilization on a fixed interval.
type cpuSampler struct {
	interval time.Duration
	samples  []float64
	stop     chan struct{}
	done     chan struct{}
}

func startCPUSampler(interval time.Duration) *cpuSampler {
	s := &cpuSampler{
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		prev, err := sysmon.ProcessCPUTime()
		if err != nil {
			return
		}
		prevAt := time.Now()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				cur, err := sysmon.ProcessCPUTime()
				if err != nil {
					continue
				}
				now := time.Now()
				wall := now.Sub(prevAt)
				if wall > 0 {
					s.samples = append(s.samples,
						100*float64(cur-prev)/float64(wall))
				}
				prev, prevAt = cur, now
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *cpuSampler) Stop() CPUStats {
	close(s.stop)
	<-s.done
	return summarizeCPU(s.samples)
}

func summarizeCPU(samples []float64) CPUStats {
	if len(samples) == 0 {
		return CPUStats{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		pos := p * float64(len(sorted)-1)
		lo := int(pos)
		frac := pos - float64(lo)
		if lo+1 >= len(sorted) {
			return sorted[lo]
		}
		return sorted[lo]*(1-frac) + sorted[lo+1]*frac
	}
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return CPUStats{
		N: len(sorted), Min: sorted[0], Max: sorted[len(sorted)-1],
		Q1: q(0.25), Median: q(0.5), Q3: q(0.75),
		Mean: sum / float64(len(sorted)),
	}
}

// tolerantConfigurator swallows proxy generation conflicts. When many
// strategies reconfigure the same proxy in parallel — the setup of §5.2.1 —
// a push may arrive after a newer one; the experiment treats that as benign
// (the paper's strategies were identical) rather than failing the run. It
// forwards no settling, so the sweeps run without a reconciler.
type tolerantConfigurator struct {
	inner target.Target
}

func (t tolerantConfigurator) Apply(ctx context.Context, s *core.Strategy,
	state *core.State, rc core.RoutingConfig, gen int64) error {
	err := t.inner.Apply(ctx, s, state, rc, gen)
	var prob *httpx.Problem
	if errors.As(err, &prob) && prob.Code == proxy.CodeStaleGeneration {
		return nil
	}
	var apiErr *httpx.Error // legacy envelope, pre-typed-error proxies
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
		return nil
	}
	return err
}

func (t tolerantConfigurator) Convergence(ctx context.Context, strategy string) []target.Convergence {
	return t.inner.Convergence(ctx, strategy)
}

func (t tolerantConfigurator) Retire(strategy string) { t.inner.Retire(strategy) }

// ScalabilityStrategyYAML renders the modified release strategy of §5.2.1:
// the same four phases, but only product and product A ("the checks and
// routing instrumentation for product B were ... removed").
func ScalabilityStrategyYAML(name string, tb *Testbed, plan PhasePlan) string {
	return fmt.Sprintf(`
name: %s
deployment:
  services:
    - service: product
      proxy: %s
      versions:
        - name: product
          endpoint: %s
        - name: productA
          endpoint: %s
providers:
  prometheus: %s
strategy:
  start: canary
  phases:
    - phase: canary
      duration: %s
      routes:
        - route:
            service: product
            weights: {product: 95, productA: 5}
      checks:
        - metric:
            name: a_errors
            provider: prometheus
            query: shop_request_errors_total{version="productA"}
            intervalTime: %s
            intervalLimit: %d
            threshold: %d
            validator: "<5"
      on:
        success: darklaunch
        failure: rollback
    - phase: darklaunch
      duration: %s
      routes:
        - route:
            service: product
            weights: {product: 100}
            shadows:
              - target: productA
                percent: 100
      on:
        success: abtest
        failure: rollback
    - phase: abtest
      duration: %s
      routes:
        - route:
            service: product
            weights: {product: 50, productA: 50}
            sticky: true
      checks:
        - metric:
            name: a_sales
            provider: prometheus
            query: shop_sales_total{version="productA"}
            intervalLimit: 1
            validator: ">=0"
      on:
        success: rollout
        failure: rollback
    - phase: rollout
      gradual:
        service: product
        stable: product
        candidate: productA
        from: %g
        to: 100
        step: %g
        interval: %s
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: product
            weights: {product: 100}
    - phase: rollback
      routes:
        - route:
            service: product
            weights: {product: 100}
`,
		name,
		tb.ProductProxySrv.URL(),
		tb.ProductVersions["product"].URL(),
		tb.ProductVersions["productA"].URL(),
		tb.MetricsSrv.URL(),
		plan.Canary,
		plan.CheckInterval, plan.CheckCount, plan.CheckCount,
		plan.Dark,
		plan.AB,
		plan.RolloutStepPct, plan.RolloutStepPct, plan.RolloutStep,
	)
}

// ParallelStrategiesConfig parameterizes the §5.2.1 sweep.
type ParallelStrategiesConfig struct {
	// Counts are the sweep's x positions (paper: 1,5,10,20,…,200).
	Counts []int
	// Plan is the per-strategy phase timing.
	Plan PhasePlan
	// SampleInterval is the CPU sampling period.
	SampleInterval time.Duration
}

func (c ParallelStrategiesConfig) withDefaults() ParallelStrategiesConfig {
	if len(c.Counts) == 0 {
		c.Counts = []int{1, 5, 10, 20}
	}
	if c.Plan == (PhasePlan{}) {
		c.Plan = PhasePlan{
			Canary: 2 * time.Second, Dark: 2 * time.Second, AB: 2 * time.Second,
			RolloutStep: 500 * time.Millisecond, RolloutStepPct: 20,
			CheckInterval: 500 * time.Millisecond, CheckCount: 4,
		}
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	return c
}

// RunParallelStrategies executes the Figure 7/8 sweep: for each N it starts
// N identical release strategies simultaneously on one engine and measures
// CPU utilization and per-strategy enactment delay.
func RunParallelStrategies(ctx context.Context, cfg ParallelStrategiesConfig) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	points := make([]SweepPoint, 0, len(cfg.Counts))
	for _, n := range cfg.Counts {
		p, err := runParallelStrategiesStep(ctx, n, cfg)
		if err != nil {
			return points, fmt.Errorf("n=%d: %w", n, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func runParallelStrategiesStep(ctx context.Context, n int, cfg ParallelStrategiesConfig) (SweepPoint, error) {
	tb, err := NewTestbed(TestbedConfig{WithProxies: true, Products: 4, Users: 2})
	if err != nil {
		return SweepPoint{}, err
	}
	defer tb.Close()
	// As in §5.2.1, no load targets the case-study services; the engine
	// and its check/query/routing traffic are the system under test.
	eng := engine.New(engine.WithConfigurator(
		tolerantConfigurator{inner: engine.NewFleetConfigurator()}))
	defer eng.Shutdown()

	// Give the scraper one round so check queries find data.
	tb.Scraper.ScrapeOnce(ctx)

	strategies := make([]*core.Strategy, 0, n)
	for i := 0; i < n; i++ {
		s, cerr := dsl.Compile(ScalabilityStrategyYAML(fmt.Sprintf("rollout-%03d", i), tb, cfg.Plan))
		if cerr != nil {
			return SweepPoint{}, cerr
		}
		strategies = append(strategies, s)
	}

	sampler := startCPUSampler(cfg.SampleInterval)
	runs := make([]*engine.Run, 0, n)
	for _, s := range strategies {
		r, eerr := eng.Enact(s)
		if eerr != nil {
			sampler.Stop()
			return SweepPoint{}, eerr
		}
		runs = append(runs, r)
	}

	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *engine.Run) {
			defer wg.Done()
			waitCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
			defer cancel()
			_ = r.Wait(waitCtx)
		}(r)
	}
	wg.Wait()
	cpu := sampler.Stop()

	return summarizeRuns(n, cpu, runs), nil
}

func summarizeRuns(n int, cpu CPUStats, runs []*engine.Run) SweepPoint {
	p := SweepPoint{N: n, CPU: cpu}
	delays := make([]float64, 0, len(runs))
	for _, r := range runs {
		st := r.Status()
		switch st.State {
		case engine.RunCompleted:
			p.Completed++
			delays = append(delays, st.Delay().Seconds())
		default:
			p.Failed++
		}
	}
	if len(delays) > 0 {
		var sum float64
		for _, d := range delays {
			sum += d
		}
		p.DelayMeanSeconds = sum / float64(len(delays))
		var ss float64
		for _, d := range delays {
			diff := d - p.DelayMeanSeconds
			ss += diff * diff
		}
		if len(delays) > 1 {
			p.DelaySDSeconds = math.Sqrt(ss / float64(len(delays)-1))
		}
	}
	return p
}

// ParallelChecksConfig parameterizes the §5.2.2 sweep.
type ParallelChecksConfig struct {
	// GroupCounts are the values of n; each step runs 8·n checks per
	// phase (paper: n = 1,10,20,…,200 → 8 to 1600 checks).
	GroupCounts []int
	// PhaseDuration is each of the two phases' length (paper: 60s).
	PhaseDuration time.Duration
	// CheckInterval is the checks' re-execution period.
	CheckInterval time.Duration
	// SampleInterval is the CPU sampling period.
	SampleInterval time.Duration
}

func (c ParallelChecksConfig) withDefaults() ParallelChecksConfig {
	if len(c.GroupCounts) == 0 {
		c.GroupCounts = []int{1, 5, 10}
	}
	if c.PhaseDuration == 0 {
		c.PhaseDuration = 3 * time.Second
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 500 * time.Millisecond
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 250 * time.Millisecond
	}
	return c
}

// RunParallelChecks executes the Figure 9/10 sweep: one trivial two-phase
// strategy with 8·n parallel checks (3 availability probes of the product
// service + 5 metrics queries per group, as in the paper).
func RunParallelChecks(ctx context.Context, cfg ParallelChecksConfig) ([]SweepPoint, error) {
	cfg = cfg.withDefaults()
	points := make([]SweepPoint, 0, len(cfg.GroupCounts))
	for _, n := range cfg.GroupCounts {
		p, err := runParallelChecksStep(ctx, n, cfg)
		if err != nil {
			return points, fmt.Errorf("n=%d: %w", n, err)
		}
		points = append(points, p)
	}
	return points, nil
}

func runParallelChecksStep(ctx context.Context, n int, cfg ParallelChecksConfig) (SweepPoint, error) {
	tb, err := NewTestbed(TestbedConfig{WithProxies: true, Products: 4, Users: 2})
	if err != nil {
		return SweepPoint{}, err
	}
	defer tb.Close()
	eng := engine.New(engine.WithConfigurator(
		tolerantConfigurator{inner: engine.NewFleetConfigurator()}))
	defer eng.Shutdown()
	tb.Scraper.ScrapeOnce(ctx)

	s := checksStrategy("many-checks", tb, n, cfg)

	sampler := startCPUSampler(cfg.SampleInterval)
	run, err := eng.Enact(s)
	if err != nil {
		sampler.Stop()
		return SweepPoint{}, err
	}
	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Minute)
	defer cancel()
	_ = run.Wait(waitCtx)
	cpu := sampler.Stop()

	p := summarizeRuns(8*n, cpu, []*engine.Run{run})
	return p, nil
}

// checksStrategy builds the §5.2.2 strategy: two identical phases, each
// with 8·n checks — per group of 8, three product-availability probes and
// five Prometheus queries.
func checksStrategy(name string, tb *Testbed, n int, cfg ParallelChecksConfig) *core.Strategy {
	executions := int(cfg.PhaseDuration / cfg.CheckInterval)
	if executions < 1 {
		executions = 1
	}
	productURL := tb.ProductVersions["product"].URL()
	client := &metrics.Client{BaseURL: tb.MetricsSrv.URL()}

	availability := func() core.Evaluator {
		return core.EvaluatorFunc(func(ctx context.Context) (bool, error) {
			var out map[string]string
			if err := httpx.GetJSON(ctx, productURL+"/-/healthy", &out); err != nil {
				return false, err
			}
			return out["status"] == "ok", nil
		})
	}
	promQuery := func(query string) core.Evaluator {
		return core.EvaluatorFunc(func(ctx context.Context) (bool, error) {
			v, err := client.Query(ctx, query)
			if err != nil {
				return false, err
			}
			return v < 5, nil
		})
	}
	queries := []string{
		`shop_request_errors_total{version="product"}`,
		`shop_request_errors_total{version="productA"}`,
		`shop_sales_total{version="productA"} - shop_sales_total{version="productA"}`,
		`sum(shop_request_errors_total)`,
		`min(shop_request_errors_total)`,
	}

	mkChecks := func() []core.Check {
		checks := make([]core.Check, 0, 8*n)
		for g := 0; g < n; g++ {
			for a := 0; a < 3; a++ {
				checks = append(checks, core.Check{
					Name:       fmt.Sprintf("avail-%d-%d", g, a),
					Kind:       core.BasicCheck,
					Eval:       availability(),
					Interval:   cfg.CheckInterval,
					Executions: executions,
					Thresholds: []int{executions - 1},
					Outputs:    []int{0, 1},
				})
			}
			for q, query := range queries {
				checks = append(checks, core.Check{
					Name:       fmt.Sprintf("prom-%d-%d", g, q),
					Kind:       core.BasicCheck,
					Eval:       promQuery(query),
					Interval:   cfg.CheckInterval,
					Executions: executions,
					Thresholds: []int{executions - 1},
					Outputs:    []int{0, 1},
				})
			}
		}
		return checks
	}

	routing := []core.RoutingConfig{{
		Service: "product",
		Weights: map[string]float64{"product": 100},
	}}
	return &core.Strategy{
		Name: name,
		Services: []core.Service{{
			Name:     "product",
			ProxyURL: tb.ProductProxySrv.URL(),
			Versions: []core.Version{
				{Name: "product", Endpoint: tb.ProductVersions["product"].URL()},
				{Name: "productA", Endpoint: tb.ProductVersions["productA"].URL()},
			},
		}},
		Automaton: core.Automaton{
			Start:  "p1",
			Finals: []string{"end"},
			States: []core.State{
				{ID: "p1", Duration: cfg.PhaseDuration, Checks: mkChecks(),
					Transitions: []string{"p2"}, Routing: routing},
				{ID: "p2", Duration: cfg.PhaseDuration, Checks: mkChecks(),
					Transitions: []string{"end"}, Routing: routing},
				{ID: "end", Routing: routing},
			},
		},
	}
}

// PrintSweep renders a sweep as the paper's figures' underlying tables.
func PrintSweep(w io.Writer, title, xLabel string, points []SweepPoint) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %8s %8s %8s %8s %8s | %12s %10s | %s\n",
		xLabel, "cpu_min", "cpu_q1", "cpu_med", "cpu_q3", "cpu_max",
		"delay_mean_s", "delay_sd_s", "ok/fail")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %8.1f %8.1f %8.1f %8.1f %8.1f | %12.3f %10.3f | %d/%d\n",
			p.N, p.CPU.Min, p.CPU.Q1, p.CPU.Median, p.CPU.Q3, p.CPU.Max,
			p.DelayMeanSeconds, p.DelaySDSeconds, p.Completed, p.Failed)
	}
	fmt.Fprintln(w)
}
