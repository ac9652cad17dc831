// Command benchrunner regenerates every table and figure of the paper's
// evaluation (§5) against the in-process reproduction of the testbed.
//
// Usage:
//
//	benchrunner -experiment all                  # everything, quick timing
//	benchrunner -experiment table1               # Table 1
//	benchrunner -experiment fig6                 # Figure 6 series (CSV)
//	benchrunner -experiment fig7 -counts 1,5,10,20,40
//	benchrunner -experiment fig8                 # same sweep as fig7
//	benchrunner -experiment fig9 -groups 1,5,10,20
//	benchrunner -experiment fig10                # same sweep as fig9
//	benchrunner -paper                           # paper-scale durations
//	benchrunner -singlecore                      # GOMAXPROCS=1, like the
//	                                             # paper's n1-standard-1 VMs
//
// Absolute numbers differ from the paper (loopback HTTP servers instead of
// a 12-VM Docker Swarm); the shapes — constant small proxy overhead, dark
// launch amplification, A/B load-splitting, sub-linear engine CPU growth,
// delay inflection past saturation — are the reproduction target. The
// paper's parameters are quoted beside each configuration field in
// internal/experiments.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bifrost/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	experiment := flag.String("experiment", "all", "all|table1|fig6|fig7|fig8|fig9|fig10")
	paper := flag.Bool("paper", false, "use the paper's full phase durations (slow)")
	singleCore := flag.Bool("singlecore", false, "run with GOMAXPROCS=1 to mimic the paper's single-core VMs")
	counts := flag.String("counts", "1,5,10,20", "parallel-strategy sweep counts (fig7/fig8)")
	groups := flag.String("groups", "1,5,10", "check-group sweep counts n; 8·n checks (fig9/fig10)")
	rps := flag.Float64("rps", 35, "load-test request rate (fig6/table1)")
	flag.Parse()

	if *singleCore {
		prev := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(prev)
		fmt.Printf("# GOMAXPROCS=1 (was %d)\n", prev)
	}

	ctx := context.Background()
	plan := experiments.QuickPhases()
	if *paper {
		plan = experiments.PaperPhases()
	}

	switch *experiment {
	case "table1", "fig6":
		t1, err := experiments.RunTable1(ctx, experiments.EndUserConfig{
			Plan: plan, RPS: *rps,
		})
		if err != nil {
			return err
		}
		if *experiment == "table1" {
			t1.Print(os.Stdout)
		} else {
			t1.PrintFigure6(os.Stdout)
		}
		return nil

	case "fig7", "fig8":
		points, err := experiments.RunParallelStrategies(ctx, experiments.ParallelStrategiesConfig{
			Counts: parseInts(*counts),
		})
		if err != nil {
			return err
		}
		experiments.PrintSweep(os.Stdout,
			"Figures 7 & 8: engine CPU utilization and enactment delay vs parallel strategies",
			"strategies", points)
		return nil

	case "fig9", "fig10":
		points, err := experiments.RunParallelChecks(ctx, experiments.ParallelChecksConfig{
			GroupCounts: parseInts(*groups),
		})
		if err != nil {
			return err
		}
		experiments.PrintSweep(os.Stdout,
			"Figures 9 & 10: engine CPU utilization and enactment delay vs parallel checks",
			"checks", points)
		return nil

	case "all":
		start := time.Now()
		t1, err := experiments.RunTable1(ctx, experiments.EndUserConfig{Plan: plan, RPS: *rps})
		if err != nil {
			return err
		}
		t1.Print(os.Stdout)
		t1.PrintFigure6(os.Stdout)

		p78, err := experiments.RunParallelStrategies(ctx, experiments.ParallelStrategiesConfig{
			Counts: parseInts(*counts),
		})
		if err != nil {
			return err
		}
		experiments.PrintSweep(os.Stdout,
			"Figures 7 & 8: engine CPU utilization and enactment delay vs parallel strategies",
			"strategies", p78)

		p910, err := experiments.RunParallelChecks(ctx, experiments.ParallelChecksConfig{
			GroupCounts: parseInts(*groups),
		})
		if err != nil {
			return err
		}
		experiments.PrintSweep(os.Stdout,
			"Figures 9 & 10: engine CPU utilization and enactment delay vs parallel checks",
			"checks", p910)
		fmt.Printf("# total runtime: %v\n", time.Since(start).Round(time.Second))
		return nil

	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
}

func parseInts(s string) []int {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		if v, err := strconv.Atoi(strings.TrimSpace(p)); err == nil && v > 0 {
			out = append(out, v)
		}
	}
	return out
}
