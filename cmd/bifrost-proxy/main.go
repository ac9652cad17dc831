// Command bifrost-proxy runs one Bifrost proxy: the per-service routing
// component that live testing strategies reconfigure.
//
// Usage:
//
//	bifrost-proxy -service product -listen 127.0.0.1:8081 \
//	    -backend product=http://127.0.0.1:9001 \
//	    -backend productA=http://127.0.0.1:9002
//
// All traffic received on -listen is routed between the configured version
// backends; the engine updates the configuration at runtime through the
// admin API under /_bifrost/.
//
// With -federate the proxy also runs a metrics federation agent: upstream
// latency samples feed per-window mergeable quantile sketches that are
// shipped as idempotent deltas to a bifrost-metrics store
// (/api/v1/federate), alongside the registry's counters. -replica names
// this proxy's series in the fleet (defaults to the hostname).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/metrics/federation"
	"bifrost/internal/proxy"
)

type backendFlags []proxy.Backend

func (b *backendFlags) String() string { return fmt.Sprint(*b) }

func (b *backendFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("backend %q: want name=url", v)
	}
	weight := 0.0
	if len(*b) == 0 {
		weight = 1 // first backend starts with all traffic
	}
	*b = append(*b, proxy.Backend{Version: name, URL: url, Weight: weight})
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-proxy:", err)
		os.Exit(1)
	}
}

func run() error {
	service := flag.String("service", "", "service this proxy fronts (required)")
	listen := flag.String("listen", "127.0.0.1:8081", "address to serve traffic on")
	stickyCap := flag.Int("sticky-capacity", proxy.DefaultStickyCapacity,
		"max pinned sticky assignments before clock eviction (evictions surface on proxy_sticky_evictions_total)")
	federate := flag.String("federate", "",
		"bifrost-metrics base URL to ship metric deltas to (enables the federation agent)")
	replica := flag.String("replica", "",
		"replica name for federated series (default: hostname)")
	shipInterval := flag.Duration("ship-interval", 2*time.Second,
		"how often the federation agent ships closed buckets")
	var backends backendFlags
	flag.Var(&backends, "backend", "version backend as name=url (repeatable; first gets 100% until configured)")
	flag.Parse()

	if *service == "" {
		return fmt.Errorf("missing -service")
	}
	cfg := proxy.Config{Service: *service, Generation: 0}
	cfg.Backends = backends

	opts := []proxy.Option{proxy.WithStickyCapacity(*stickyCap)}
	var agent *federation.Agent
	if *federate != "" {
		name := *replica
		if name == "" {
			host, err := os.Hostname()
			if err != nil {
				return fmt.Errorf("-replica not set and hostname unavailable: %v", err)
			}
			name = host
		}
		// The proxy and the agent share one registry: the agent gathers the
		// proxy's counters (requests, errors) each flush, while raw latency
		// samples flow into its sketches through the observer hook.
		reg := metrics.NewRegistry()
		sink := federation.HTTPSink{Client: &metrics.Client{BaseURL: *federate}}
		agent = federation.New(name, sink,
			federation.WithShipInterval(*shipInterval),
			federation.WithRegistry(reg))
		opts = append(opts,
			proxy.WithRegistry(reg),
			proxy.WithLatencyObserver(agent.Observe))
		log.Printf("federation agent %q shipping to %s every %v", name, *federate, *shipInterval)
	}

	p, err := proxy.New(*service, cfg, opts...)
	if err != nil {
		return err
	}
	defer p.Close()

	if agent != nil {
		agent.Start()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			agent.Stop(ctx)
		}()
	}

	srv, err := httpx.NewServer(*listen, p)
	if err != nil {
		return err
	}
	srv.Start()
	log.Printf("bifrost-proxy for %q listening on %s (admin under /_bifrost/)", *service, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
