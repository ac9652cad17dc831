// Command bifrost-metrics runs the standalone Bifrost metrics provider:
// the Prometheus-shaped time-series store the engine's checks query
// (/api/v1/query, /api/v1/moments), fed by pushed samples (/api/v1/ingest),
// by federated deltas from per-proxy aggregation agents (/api/v1/federate
// — bucket summaries plus mergeable quantile sketches, deduplicated by
// replica/incarnation/sequence so retries never double-count), and
// optionally by scraping exposition endpoints.
//
// /api/v1/query answers two forms. GET ?query=EXPR evaluates one
// expression, for operators. POST with a JSON array of expressions
// evaluates a batch at one store instant and answers
// {"status":"success","data":[{"value":N} | {"error":"…"}, …]} in request
// order; an expression that fails fails only its own entry. The engine's
// checks use the batch form: the checks of a strategy that come due
// together share one request.
//
// Usage:
//
//	bifrost-metrics -listen 127.0.0.1:9090
//	bifrost-metrics -scrape http://127.0.0.1:8081/metrics,http://127.0.0.1:8082/metrics
//
// Retention is bounded per series: -max-samples raw samples (the ring
// buffer) and -staleness for instant-query freshness. -summary-bucket
// controls the width of the pre-aggregation buckets window queries are
// answered from.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-metrics:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:9090", "address to serve the metrics API on")
	maxSamples := flag.Int("max-samples", metrics.DefaultMaxSamples,
		"raw samples retained per series (ring buffer bound)")
	staleness := flag.Duration("staleness", metrics.DefaultStaleness,
		"how far back instant queries look for a series' latest sample")
	summaryBucket := flag.Duration("summary-bucket", metrics.DefaultSummaryBucket,
		"width of the per-series pre-aggregation buckets (0 disables summaries)")
	scrape := flag.String("scrape", "", "comma-separated exposition endpoints to scrape")
	scrapeInterval := flag.Duration("scrape-interval", 5*time.Second, "scrape period")
	flag.Parse()

	if *maxSamples <= 0 {
		return fmt.Errorf("-max-samples must be positive (got %d)", *maxSamples)
	}
	store := metrics.NewStore(
		metrics.WithMaxSamples(*maxSamples),
		metrics.WithStaleness(*staleness),
		metrics.WithSummaryBucket(*summaryBucket),
	)

	if *scrape != "" {
		scraper := metrics.NewScraper(store, *scrapeInterval, nil)
		for _, target := range strings.Split(*scrape, ",") {
			target = strings.TrimSpace(target)
			if target == "" {
				continue
			}
			u, err := url.Parse(target)
			if err != nil {
				return fmt.Errorf("bad scrape target %q: %v", target, err)
			}
			scraper.AddTarget(metrics.Target{URL: target, Instance: u.Host})
		}
		scraper.Start()
		defer scraper.Stop()
	}

	srv, err := httpx.NewServer(*listen, metrics.NewServer(store).Handler())
	if err != nil {
		return err
	}
	srv.Start()
	log.Printf("bifrost-metrics listening on %s (retaining %d samples/series)",
		srv.Addr(), *maxSamples)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Println("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
