// Command bifrost-engine runs the Bifrost engine daemon: the REST API the
// CLI talks to, the live dashboard, and the engine's own /metrics endpoint.
//
// Usage:
//
//	bifrost-engine -listen 127.0.0.1:7000 -journal-dir /var/lib/bifrost/journal
//
// Strategies are scheduled via the API (see cmd/bifrost) as YAML documents
// in the Bifrost DSL; routing updates are pushed over HTTP to the proxies
// named in each strategy's deployment section. Services fronted by a
// multi-replica proxy fleet (`proxies:` list) get every routing change
// fanned out to all replicas with bounded retries (-push-timeout,
// -push-retries), state entries succeed once -fleet-quorum replicas ack
// (0 = all), and a background reconciler re-pushes the current generation
// to lagging or restarted replicas every -reconcile-interval.
//
// With -journal-dir set, every run is recorded in a durable journal and the
// daemon recovers on startup: unfinished strategies resume from their
// recorded state (same phase, elapsed time preserved, routing re-applied)
// instead of being silently aborted by the restart. SIGTERM suspends runs
// without ending them, so rolling the control plane is safe mid-release.
// See docs/operations.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bifrost/internal/dashboard"
	"bifrost/internal/dsl"
	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/journal"
	"bifrost/internal/lease"
	"bifrost/internal/metrics"
	"bifrost/internal/sysmon"
	"bifrost/internal/target"
	"bifrost/internal/target/command"
	flagtarget "bifrost/internal/target/flag"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-engine:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7000", "address to serve the API and dashboard on")
	sampleEvery := flag.Duration("sysmon-interval", 5*time.Second, "resource sampling period (0 disables)")
	journalDir := flag.String("journal-dir", "",
		"directory for the durable run journal; restarts resume unfinished runs (empty disables)")
	engineID := flag.String("engine-id", "",
		"this replica's id in an HA fleet (empty: single-replica mode)")
	peersFlag := flag.String("peers", "",
		"comma-separated id=url fleet membership, self included (HA mode; requires -engine-id and -journal-dir on shared storage)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second,
		"HA run-lease lifetime; a dead replica's runs are adopted after this long")
	flushEvery := flag.Duration("journal-flush-interval", 0,
		"journal group-commit window (0: journal default, 25ms); terminal events always wait for their fsync. Negative: fsync every append, and every event waits for its record")
	heartbeatEvery := flag.Duration("journal-heartbeat", 30*time.Second,
		"cadence of journal liveness heartbeats (bounds recovery's downtime estimate)")
	fleetQuorum := flag.Int("fleet-quorum", 0,
		"proxy replica acks required per config push (0 = all replicas)")
	pushTimeout := flag.Duration("push-timeout", 5*time.Second,
		"per-attempt deadline for one proxy config push")
	pushRetries := flag.Int("push-retries", 4,
		"attempts per proxy config push (transient failures back off exponentially)")
	reconcileEvery := flag.Duration("reconcile-interval", 10*time.Second,
		"anti-entropy cadence: how often lagging/restarted proxy replicas are re-pushed")
	flag.Parse()

	registry := metrics.NewRegistry()
	fleet := engine.NewFleetConfigurator(
		engine.FleetQuorum(*fleetQuorum),
		engine.FleetRetry(engine.RetryPolicy{PushTimeout: *pushTimeout, MaxAttempts: *pushRetries}),
		engine.FleetReconcileInterval(*reconcileEvery),
	)
	// Enactment targets, dispatched per service by its deployment's
	// `target:` kind: the proxy fleet (default), client-side flag rulesets
	// served from /flags/, and declarative shell-outs.
	flagStore := flagtarget.NewStore(flagtarget.WithReconcileInterval(*reconcileEvery))
	targets := target.NewRegistry()
	for kind, t := range map[string]target.Target{
		target.KindProxy:   fleet,
		target.KindFlag:    flagStore,
		target.KindCommand: &command.Runner{},
	} {
		if err := targets.Register(kind, t); err != nil {
			return err
		}
	}
	opts := []engine.Option{
		engine.WithTargets(targets),
		engine.WithRegistry(registry),
	}
	if *journalDir != "" {
		js, err := engine.OpenJournal(*journalDir, journal.Options{FlushInterval: *flushEvery})
		if err != nil {
			return err
		}
		opts = append(opts, engine.WithJournalSet(js),
			engine.WithHeartbeatInterval(*heartbeatEvery))
	}

	// HA mode: -engine-id names this replica and -peers the fleet; every
	// replica points -journal-dir at the same shared root, and run
	// ownership is arbitrated by leases + fencing tokens instead of a
	// process-wide flock. See docs/operations.md.
	var cluster *engine.Cluster
	if *engineID != "" {
		if *journalDir == "" {
			return fmt.Errorf("-engine-id requires -journal-dir (shared across replicas)")
		}
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return err
		}
		leases, err := lease.Open(filepath.Join(*journalDir, "leases"))
		if err != nil {
			return err
		}
		cluster, err = engine.NewCluster(engine.ClusterOptions{
			Self:    *engineID,
			Peers:   peers,
			Leases:  leases,
			TTL:     *leaseTTL,
			Compile: dsl.Compile,
			Expand:  expandAll,
		})
		if err != nil {
			return err
		}
		opts = append(opts,
			engine.WithFence(cluster.Token),
			engine.WithEnactGate(cluster.Gate))
		// Hierarchical rollouts: a parent run schedules its per-region
		// children back through this replica's own API, where the cluster
		// handler shards them across the fleet like any operator POST —
		// each child gets its own lease, journal partition, and recovery.
		if self, ok := peers[*engineID]; ok {
			opts = append(opts, engine.WithChildRunner(engine.HTTPChildRunner{
				Client: &engine.Client{BaseURL: self},
			}))
		} else {
			log.Printf("warning: -peers does not list %s; sub-rollout children stay on this replica", *engineID)
		}
		log.Printf("HA replica %s joining fleet of %d (lease TTL %s)",
			*engineID, len(peers), *leaseTTL)
	}

	eng := engine.New(opts...)
	switch {
	case cluster != nil:
		// A replica never replays the whole journal root at startup: its
		// first lease sweep re-claims its own runs (and any expired
		// orphans it is preferred for) via the same adoption path used
		// for dead-peer takeover.
		defer eng.Suspend()
		cluster.Start(eng)
		defer cluster.Close()
	case *journalDir != "":
		// A journaled engine suspends on exit (runs stay resumable);
		// without a journal, stopping the daemon ends its runs.
		defer eng.Suspend()
		report, err := eng.Recover(dsl.Compile)
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		for _, r := range report.Resumed {
			st := r.Status()
			log.Printf("recovered run %s: resumed in state %q (%s)",
				st.Strategy, st.Current, st.State)
		}
		if report.Finished > 0 {
			log.Printf("recovered %d finished run(s) as history", report.Finished)
		}
		for name, reason := range report.Skipped {
			log.Printf("warning: cannot resume run %s: %s", name, reason)
		}
	default:
		defer eng.Shutdown()
	}

	if *sampleEvery > 0 {
		sampler := sysmon.New(registry, "engine", *sampleEvery, nil)
		sampler.Start()
		defer sampler.Stop()
	}

	// The API serves /api/v2 (run lifecycle resources, SSE event stream);
	// the dashboard's page drives it too.
	// The expander lets one POST schedule a whole matrix template.
	api := engine.NewAPI(eng, dsl.Compile).WithExpander(expandAll).Handler()
	if cluster != nil {
		// Ownership routing in front of the API: non-owned run requests
		// 307 to the lease holder, schedules shard across the fleet,
		// lists fan out and merge.
		api = cluster.Handler(api)
	}
	dash := dashboard.New(eng).Handler()
	mux := http.NewServeMux()
	mux.Handle("/api/", api)
	mux.Handle("/-/healthy", api)
	mux.Handle("/dashboard", dash)
	mux.Handle("/dashboard/", dash)
	mux.Handle("/flags/", http.StripPrefix("/flags", flagStore.Handler()))
	mux.Handle("/metrics", registry.Handler())

	srv, err := httpx.NewServer(*listen, mux)
	if err != nil {
		return err
	}
	srv.Start()
	log.Printf("bifrost-engine listening on %s (dashboard at %s/dashboard)", srv.Addr(), srv.URL())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// parsePeers parses the -peers flag: "engine-1=http://host:7000,...".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers: malformed entry %q (want id=url)", part)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("-peers is required with -engine-id")
	}
	return peers, nil
}

// expandAll adapts dsl.CompileAll to the API's expander hook.
func expandAll(src string) ([]engine.ExpandedStrategy, error) {
	runs, err := dsl.CompileAll(src)
	if err != nil {
		return nil, err
	}
	out := make([]engine.ExpandedStrategy, len(runs))
	for i, r := range runs {
		out[i] = engine.ExpandedStrategy{Strategy: r.Strategy, Source: r.Source, Vars: r.Vars}
	}
	return out, nil
}
