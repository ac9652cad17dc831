// Command bifrost-bench runs the Bifrost benchmark.
//
//	bifrost-bench -workload release -seed 1 -seconds 15 -trace 0
//
// runs one workload in this process and prints every end-to-end metric
// (-trace 0) or every per-layer metric (-trace 1) by name with its unit,
// the workload's figures, then, as the last line, one JSON object holding
// the end-to-end or per-layer metrics:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": U}}}
//
// -workload all runs every workload, and -repeat k runs each k times with
// seeds seed..seed+k-1; both start one fresh process per run and print each
// metric's median, interquartile range, and coefficient of variation. The exit status is 0 only when every correctness gate passed.
// The command runs from the root of a checkout and refuses to run when its
// BENCHMARK.json lists other workloads or metrics than the code reports.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bifrost/bench/bifrost"
)

// output is the last line of every run.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(bifrost.Workloads, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	repeat := flag.Int("repeat", 1, "runs per workload, each in a fresh process with the next seed")
	spansDir := flag.String("spans-dir", "", "directory the traced run writes its spans to")
	flag.Parse()

	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = bifrost.CheckBenchmarkJSON(raw)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-bench:", err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := bifrost.Options{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpansDir: *spansDir,
	}
	fmt.Println(environment())
	if *workload != "all" && *repeat <= 1 {
		return runOne(ctx, opts)
	}
	workloads := []string{*workload}
	if *workload == "all" {
		workloads = bifrost.Workloads
	}
	return runMany(ctx, opts, workloads, max(*repeat, 1))
}

// runOne runs one workload in this process.
func runOne(ctx context.Context, opts bifrost.Options) int {
	res, err := bifrost.Run(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-bench:", err)
		return 2
	}
	out := output{
		Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]value{},
	}
	fmt.Printf("workload %s seed %d seconds %g trace %t\n", opts.Workload, opts.Seed, opts.Seconds, opts.Trace)
	for _, m := range opts.Metrics() {
		v := res.Values[m.Name]
		out.Metrics[m.Name] = value{v, m.Unit}
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if opts.Trace {
		// Against an untraced run's, these give the tracing overhead.
		fmt.Println("  end-to-end, with tracing overhead:")
		for _, m := range bifrost.EndToEnd {
			fmt.Printf("  %-30s %14.6g %s\n", m.Name, res.Values[m.Name], m.Unit)
		}
	}
	fmt.Println("  figures:")
	for _, m := range bifrost.Figures[opts.Workload] {
		fmt.Printf("  %-30s %14.6g %s\n", m.Name, res.Values[m.Name], m.Unit)
	}
	for _, g := range res.Gates {
		fmt.Println("  gate failed:", g)
	}
	fmt.Printf("  operations %d, failed %d, correct %t\n", res.Attempted, res.Failed, res.Correct())
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runMany runs every workload repeat times, each run in a fresh child
// process, and summarizes each metric's spread.
func runMany(ctx context.Context, opts bifrost.Options, workloads []string, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-bench:", err)
		return 2
	}
	all := output{Correct: true, Metrics: map[string]value{}}
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			seed := opts.Seed + int64(i)
			res, err := child(ctx, self, w, seed, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bifrost-bench: %s seed %d: %v\n", w, seed, err)
				return 2
			}
			fmt.Printf("%s seed %d: correct %t, %d operations, %d failed\n", w, seed, res.Correct, res.Attempted, res.Failed)
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		fmt.Printf("workload %s: %d runs\n  %-30s %14s %12s %8s %s\n", w, repeat, "metric", "median", "IQR", "CV", "unit")
		for _, m := range opts.Metrics() {
			sp := bifrost.SpreadOf(values[m.Name])
			fmt.Printf("  %-30s %14.6g %12.4g %7.2f%% %s\n", m.Name, sp.Median, sp.IQR, 100*sp.CV, m.Unit)
			name := m.Name
			if len(workloads) > 1 {
				name = w + "." + m.Name
			}
			all.Metrics[name] = value{sp.Median, m.Unit}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bifrost-bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// child runs one workload in a fresh process and parses its result line.
func child(ctx context.Context, self, workload string, seed int64, opts bifrost.Options) (*output, error) {
	trace := "0"
	if opts.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, self,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opts.Seconds, 'g', -1, 64), "-trace", trace,
		"-spans-dir", opts.SpansDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	var exitErr *exec.ExitError
	if err != nil && !(errors.As(err, &exitErr) && exitErr.ExitCode() == 1) {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := sc.Text(); strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var out output
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &out, nil
}

// environment describes the machine and build a result was measured on.
func environment() string {
	return fmt.Sprintf("env go=%s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source revision when the benchmark runs in a git
// checkout, and "unknown" otherwise.
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
