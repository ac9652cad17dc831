package bifrost

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
)

// The control workload is the paper's §5.2 experiment: runs arrive open
// loop, each compiled from YAML and enacted against its own proxy with
// metric checks; mid-way the engine is suspended as in a deploy, and a
// fresh engine recovers the journal and drains every run.
const (
	controlRate = 20 // runs per second
	// controlArrivals is the share of the window runs arrive in.
	controlArrivals = 0.6
	controlChecks   = 8
	checkInterval   = 100 * time.Millisecond
	// controlStickyCapacity sizes the sticky store of the per-run proxies.
	controlStickyCapacity = 1024
	// Phase shares of the window: canary, dark launch, and each of the
	// five gradual rollout steps (3 s, 1 s, and 200 ms in a 15 s window).
	controlCanary  = 0.2
	controlDark    = 1.0 / 15
	controlStep    = 1.0 / 75
	controlMaxWait = 60 * time.Second
)

type controlEnv struct {
	servers
	metricsURL, backendURL string
	proxies                []*proxy.Proxy
	proxyURLs              []string
	eng                    *engine.Engine
	registry               *metrics.Registry
	dir                    string
}

func (e *controlEnv) close() {
	if e.eng != nil {
		e.eng.Shutdown()
	}
	e.servers.close()
	for _, p := range e.proxies {
		p.Close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

// newControlEnv starts the metrics provider the checks query, one trivial
// backend, one proxy per run, and a journaled engine.
func newControlEnv(r *run, runs int) (_ *controlEnv, err error) {
	e := &controlEnv{}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	store := metrics.NewStore()
	now := time.Now()
	for c := 0; c < controlChecks; c++ {
		store.Append("bench_errors_total", metrics.Labels{"check": strconv.Itoa(c)}, 0, now)
	}
	metricsSrv, err := e.serve(r.tr.MetricsHandler(metrics.NewServer(store).Handler()))
	if err != nil {
		return nil, err
	}
	e.metricsURL = metricsSrv.URL()
	backend, err := e.serve(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write(backendBody)
	}))
	if err != nil {
		return nil, err
	}
	e.backendURL = backend.URL()
	for i := 0; i < runs; i++ {
		// No user traffic reaches these proxies, so they run with a small
		// sticky store (bifrost-proxy -sticky-capacity). At the default
		// capacity every config push allocates about 0.85 MB of shard maps,
		// which nearly triples this workload's memory and adds a fifth to
		// its CPU per run, none of it engine work.
		p, err := proxy.New("svc", proxy.Config{},
			proxy.WithSeed(r.opts.Seed+int64(i)), proxy.WithStickyCapacity(controlStickyCapacity))
		if err != nil {
			return nil, err
		}
		e.proxies = append(e.proxies, p)
		srv, err := e.serve(r.tr.ProxyHandler(p))
		if err != nil {
			return nil, err
		}
		e.proxyURLs = append(e.proxyURLs, srv.URL())
	}
	if e.eng, e.registry, e.dir, err = newJournaledEngine(); err != nil {
		return nil, err
	}
	return e, nil
}

// strategyYAML renders run i: canary with metric checks, dark launch, and
// a five-step gradual rollout, against run i's own proxy.
func (e *controlEnv) strategyYAML(r *run, i int, execs int) string {
	var checks strings.Builder
	for c := 0; c < controlChecks; c++ {
		fmt.Fprintf(&checks, `
        - metric:
            name: errors-%d
            provider: prometheus
            query: bench_errors_total{check="%d"}
            intervalTime: %s
            intervalLimit: %d
            threshold: %d
            validator: "<5"`, c, c, ms(checkInterval), execs, execs)
	}
	return fmt.Sprintf(`
name: run-%04d
deployment:
  services:
    - service: svc
      proxy: %s
      versions:
        - name: stable
          endpoint: %s
        - name: canary
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
            service: svc
            weights: {stable: 95, canary: 5}
      checks:%s
      on:
        success: darklaunch
        failure: rollback
    - phase: darklaunch
      duration: %s
      routes:
        - route:
            service: svc
            weights: {stable: 100}
            shadows:
              - target: canary
                percent: 100
      on:
        success: rollout
        failure: rollback
    - phase: rollout
      gradual:
        service: svc
        stable: stable
        candidate: canary
        from: 20
        to: 100
        step: 20
        interval: %s
      on:
        success: done
    - phase: done
      routes:
        - route:
            service: svc
            weights: {canary: 100}
    - phase: rollback
      routes:
        - route:
            service: svc
            weights: {stable: 100}
`, i, e.proxyURLs[i], e.backendURL, e.backendURL, e.metricsURL,
		ms(r.scaled(controlCanary)), checks.String(), ms(r.scaled(controlDark)), ms(r.scaled(controlStep)))
}

func runControl(ctx context.Context, r *run) error {
	runs := int(controlRate * r.opts.Seconds * controlArrivals)
	e, setup, err := measureSetup(func() (*controlEnv, error) { return newControlEnv(r, runs) })
	if err != nil {
		return err
	}
	defer e.close()
	r.set("setup_s", setup)

	execs := max(1, int(r.scaled(controlCanary)/checkInterval))
	sources := make([]string, runs)
	for i := range sources {
		sources[i] = e.strategyYAML(r, i, execs)
	}
	// The seed orders the arrivals and places each in its slot. Evenly
	// spaced arrivals would start the canaries' 100 ms check tickers in two
	// phases only, so every check of half the runs would fire at once,
	// twice per interval; transitions caught in those bursts set the tail,
	// and how long the bursts last tracks the machine's other load more
	// than the engine (bench/README.md).
	order := r.rng.Perm(runs)
	arrivals := jittered(r.rng, runs, time.Second/controlRate)

	enactErrs := make([]error, runs)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	cpu0 := cpuTime()
	r.late = openLoop(ctx, start, arrivals, func(k int, _ time.Time) {
		i := order[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := r.tr.Now()
			s, err := dsl.Compile(sources[i])
			r.tr.End("dsl.compile", t)
			if err != nil {
				enactErrs[i] = err
				return
			}
			t = r.tr.Now()
			_, enactErrs[i] = e.eng.EnactSource(s, sources[i])
			r.tr.End("engine.enact", t)
		}()
	})
	wg.Wait()
	for i, err := range enactErrs {
		if err != nil {
			return fmt.Errorf("enact run %d: %w", i, err)
		}
	}

	// A deploy: suspend the engine with runs in flight, then recover the
	// journal under a fresh engine, which drains them. The suspend falls
	// mid-way through the last arrivals' dark launch, once no run is in its
	// canary, and not at the end of the arrivals: recovery keeps a state's
	// elapsed time but re-arms its checks' full schedules, so a run
	// recovered late in its canary cannot reach intervalLimit passing
	// executions and rolls back (bench/README.md).
	time.Sleep(time.Until(start.Add(r.scaled(controlArrivals + controlCanary + controlDark/2))))
	r.set("journal.bytes_per_run", dirBytes(e.dir)/float64(runs))
	suspended := time.Now()
	e.eng.Suspend()
	old := e.eng
	r.set("journal.records", counterValue(e.registry, "engine_journal_records_total"))
	replayed, err := replayCount(e.dir)
	if err != nil {
		return fmt.Errorf("count journal records: %w", err)
	}
	t := r.tr.Now()
	recoverStart := time.Now()
	if e.eng, e.registry, err = openEngine(e.dir); err != nil {
		e.eng = nil
		return fmt.Errorf("reopen journal: %w", err)
	}
	report, err := e.eng.Recover(dsl.Compile)
	recoverTime := time.Since(recoverStart)
	r.tr.End("engine.recover", t)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.set("recover_s", recoverTime.Seconds())
	r.set("journal.replayed_records", replayed)
	for name, why := range report.Skipped {
		r.fail("control: run %s not recovered: %s", name, why)
	}

	waitCtx, cancel := context.WithTimeout(ctx, controlMaxWait)
	defer cancel()
	planned := func(state string) time.Duration {
		switch state {
		case "canary":
			return r.scaled(controlCanary)
		case "darklaunch":
			return r.scaled(controlDark)
		default:
			return r.scaled(controlStep)
		}
	}
	var delays, runDelays []time.Duration
	failed := 0
	for i := 0; i < runs; i++ {
		// Runs that finished before the suspend keep their live status on
		// the old engine; the rest were resumed by the new one.
		name := fmt.Sprintf("run-%04d", i)
		run, ok := old.Run(name)
		if !ok || !finished(run.Status()) {
			run, ok = e.eng.Run(name)
		}
		if !ok {
			failed++
			r.fail("control: %s unknown to both engines", name)
			continue
		}
		_ = run.Wait(waitCtx)
		st := run.Status()
		if st.State != engine.RunCompleted || st.Current != "done" {
			failed++
			r.fail("control: %s ended %s in %q, want completed in \"done\" (recovered %t, path %s)",
				name, st.State, st.Current, st.Recovered, pathOf(st))
			continue
		}
		delays = append(delays, phaseDelays(st, planned, suspended)...)
		runDelays = append(runDelays, st.Delay())
	}
	cpu := cpuTime() - cpu0
	r.window = time.Since(start)
	r.set("mem_peak_mb", memPeakMB())
	r.res.Attempted, r.res.Failed = runs, failed
	r.set("run_failure_ratio", float64(failed)/float64(runs))
	r.expectedChecks = runs * controlChecks * execs
	r.setLatency(delays)
	runMs := sortedIn(runDelays, time.Millisecond)
	r.set("enact_delay_p50_ms", quantile(runMs, 0.5))
	r.set("enact_delay_p90_ms", quantile(runMs, 0.9))
	r.set("cpu_ms_per_op", cpu.Seconds()*1000/float64(runs))
	r.set("cpu_ms_per_run", cpu.Seconds()*1000/float64(runs))
	return nil
}

func finished(st engine.Status) bool {
	return st.State == engine.RunCompleted || st.State == engine.RunAborted || st.State == engine.RunFailed
}

// pathOf renders the transitions a run took.
func pathOf(st engine.Status) string {
	parts := make([]string, 0, len(st.Path))
	for _, t := range st.Path {
		p := t.From + "→" + t.To
		if t.Cause != "" {
			p += "(" + t.Cause + ")"
		}
		parts = append(parts, p)
	}
	return strings.Join(parts, " ")
}

// phaseDelays returns how much longer than planned each phase of a
// finished run took, its routing push included; the final state's is the
// push and the last fleet check. The phase a run spent suspended in is
// left out: its length includes the restart, which recover_s reports.
func phaseDelays(st engine.Status, planned func(state string) time.Duration, suspended time.Time) []time.Duration {
	out := make([]time.Duration, 0, len(st.Path)+1)
	spans := func(from, to time.Time) bool { return from.Before(suspended) && to.After(suspended) }
	entered := st.StartedAt
	for _, t := range st.Path {
		if !spans(entered, t.At) {
			out = append(out, t.At.Sub(entered)-planned(t.From))
		}
		entered = t.At
	}
	if !spans(entered, st.FinishedAt) {
		out = append(out, st.FinishedAt.Sub(entered))
	}
	return out
}
