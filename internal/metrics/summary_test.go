package metrics

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/httpx"
	"bifrost/internal/sketch"
)

// rawWindowAggregate recomputes a window aggregation by brute force over
// the retained raw samples, the semantics the summary fast path must
// reproduce exactly.
func rawWindowAggregate(s *Store, fn, name string, d time.Duration, at time.Time) (float64, bool) {
	perSeries := s.RangeSamples(name, nil, d, at)
	if len(perSeries) == 0 {
		return 0, false
	}
	switch fn {
	case "rate", "increase":
		var total float64
		for _, samples := range perSeries {
			total += counterIncrease(samples)
		}
		if fn == "rate" {
			return total / d.Seconds(), true
		}
		return total, true
	}
	pool := make([]float64, 0, 64)
	for _, samples := range perSeries {
		for _, sm := range samples {
			pool = append(pool, sm.V)
		}
	}
	var agg string
	switch fn {
	case "avg_over_time":
		agg = "avg"
	case "min_over_time":
		agg = "min"
	case "max_over_time":
		agg = "max"
	case "sum_over_time":
		agg = "sum"
	case "count_over_time":
		agg = "count"
	}
	v, _ := reduce(pool, agg)
	return v, true
}

var windowFns = []string{"increase", "rate", "avg_over_time", "min_over_time",
	"max_over_time", "sum_over_time", "count_over_time"}

// TestWindowAggregateAtRingWrap drives a small ring buffer through many
// wraps and checks, at every step and for several window sizes, that the
// summary-backed aggregation equals the brute-force raw scan — including
// windows whose oldest samples were just evicted mid-window.
func TestWindowAggregateAtRingWrap(t *testing.T) {
	const maxSamples = 32
	s := NewStore(WithMaxSamples(maxSamples), WithSummaryBucket(time.Second))
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)

	var counter float64
	for i := 0; i < 4*maxSamples; i++ {
		// Irregular spacing (200–900ms) so samples do not align with
		// bucket boundaries, plus an occasional counter reset.
		base = base.Add(time.Duration(200+rng.Intn(700)) * time.Millisecond)
		if rng.Intn(29) == 0 {
			counter = rng.Float64() // reset
		} else {
			counter += rng.Float64() * 5
		}
		s.Append("wrap_counter", nil, counter, base)
		s.Append("wrap_gauge", nil, rng.NormFloat64()*10, base)

		if i%7 != 0 {
			continue
		}
		for _, window := range []time.Duration{3 * time.Second, 9 * time.Second, time.Minute} {
			for _, fn := range windowFns {
				for _, metric := range []string{"wrap_counter", "wrap_gauge"} {
					want, ok := rawWindowAggregate(s, fn, metric, window, base)
					got, err := s.WindowAggregate(fn, 0, metric, nil, window, base)
					if !ok {
						if !errors.Is(err, ErrNoData) {
							t.Fatalf("step %d %s(%s[%v]): err = %v, want ErrNoData", i, fn, metric, window, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d %s(%s[%v]): %v", i, fn, metric, window, err)
					}
					if math.Abs(got-want) > 1e-7*math.Max(1, math.Abs(want)) {
						t.Fatalf("step %d %s(%s[%v]) = %v, raw scan = %v", i, fn, metric, window, got, want)
					}
				}
			}
		}
	}
}

// TestWindowAggregateOutOfOrderFallsBack ensures an out-of-order append
// disables the summaries without breaking window queries.
func TestWindowAggregateOutOfOrderFallsBack(t *testing.T) {
	s := NewStore()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	s.Append("m", nil, 1, base)
	s.Append("m", nil, 3, base.Add(2*time.Second))
	s.Append("m", nil, 2, base.Add(1*time.Second)) // out of order
	got, err := s.WindowAggregate("sum_over_time", 0, "m", nil, time.Minute, base.Add(3*time.Second))
	if err != nil || got != 6 {
		t.Fatalf("sum_over_time = %v, %v; want 6", got, err)
	}
	got, err = s.WindowAggregate("count_over_time", 0, "m", nil, 1500*time.Millisecond, base.Add(2*time.Second))
	if err != nil || got != 2 {
		t.Fatalf("count_over_time = %v, %v; want 2 (the two newest samples)", got, err)
	}
}

func TestWindowMoments(t *testing.T) {
	s := NewStore()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	vals := []float64{10, 12, 14, 16, 18}
	for i, v := range vals {
		s.Append("lat", Labels{"version": "a"}, v, base.Add(time.Duration(i)*time.Second))
	}
	m, err := s.WindowMoments("lat", []LabelMatch{{Name: "version", Op: MatchEqual, Value: "a"}},
		time.Minute, base.Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 5 || m.Mean != 14 || m.Min != 10 || m.Max != 18 {
		t.Errorf("moments = %+v", m)
	}
	if math.Abs(m.Variance-10) > 1e-9 { // sample variance of 10,12,14,16,18
		t.Errorf("variance = %v, want 10", m.Variance)
	}
	if _, err := s.WindowMoments("ghost", nil, time.Minute, base); !errors.Is(err, ErrNoData) {
		t.Errorf("ghost err = %v, want ErrNoData", err)
	}
}

// TestWindowMomentsLargeMagnitude guards the Welford/Chan accumulation:
// a series with huge values and tiny spread must yield the spread's
// variance, not floating-point cancellation noise (which a naive
// Σv² − n·mean² would produce, letting a compare check manufacture
// certainty out of rounding error).
func TestWindowMomentsLargeMagnitude(t *testing.T) {
	s := NewStore()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	// Values around 1e9 with a ±2 spread: exact sample variance is known.
	vals := []float64{1e9 - 2, 1e9 - 1, 1e9, 1e9 + 1, 1e9 + 2}
	for i, v := range vals {
		s.Append("big", nil, v, base.Add(time.Duration(i)*time.Second))
	}
	m, err := s.WindowMoments("big", nil, time.Minute, base.Add(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Variance-2.5) > 1e-6 { // sample variance of −2..2 is 2.5
		t.Errorf("variance = %v, want 2.5 (no cancellation)", m.Variance)
	}
	if math.Abs(m.Mean-1e9) > 1e-3 {
		t.Errorf("mean = %v, want 1e9", m.Mean)
	}
	// Constant series: variance exactly zero, not negative noise.
	for i := 0; i < 10; i++ {
		s.Append("flat", nil, 123456789.125, base.Add(time.Duration(i)*time.Second))
	}
	m, err = s.WindowMoments("flat", nil, time.Minute, base.Add(10*time.Second))
	if err != nil || m.Variance != 0 {
		t.Errorf("constant series variance = %v, %v; want exactly 0", m.Variance, err)
	}
}

// TestWindowQuantileSketchPath: a local window above
// exactQuantileThreshold answers from a sketch, within its relative error
// α of the exact ⌈q·n⌉-th smallest sample.
func TestWindowQuantileSketchPath(t *testing.T) {
	s := NewStore()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(3))
	n := 4 * exactQuantileThreshold // force the sketch path
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()*5 + 50
		s.Append("lat", nil, vals[i], base.Add(time.Duration(i)*100*time.Millisecond))
	}
	at := base.Add(time.Duration(n) * 100 * time.Millisecond)
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, err := s.WindowAggregate("quantile_over_time", q, "lat", nil, time.Hour, at)
		if err != nil {
			t.Fatal(err)
		}
		exact := sorted[int(math.Ceil(q*float64(n)))-1]
		if math.Abs(got-exact) > sketch.DefaultAlpha*math.Abs(exact) {
			t.Errorf("q=%v: sketch = %v, exact = %v, want within α=%v", q, got, exact, sketch.DefaultAlpha)
		}
	}
}

func TestStddevAndVarOverTimeQueries(t *testing.T) {
	s := NewStore()
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	for i, v := range []float64{10, 12, 14, 16, 18} {
		s.Append("lat", nil, v, base.Add(time.Duration(i)*time.Second))
	}
	at := base.Add(5 * time.Second)
	// Population variance (÷n), matching Prometheus: deviations of
	// 10,12,14,16,18 from mean 14 are 16,4,0,4,16 → 40/5 = 8.
	va, err := s.Query("var_over_time(lat[1m])", at)
	if err != nil || math.Abs(va-8) > 1e-9 {
		t.Errorf("var_over_time = %v, %v; want 8", va, err)
	}
	sd, err := s.Query("stddev_over_time(lat[1m])", at)
	if err != nil || math.Abs(sd-math.Sqrt(8)) > 1e-9 {
		t.Errorf("stddev_over_time = %v, %v; want √8", sd, err)
	}
}

func TestParseRangeSelector(t *testing.T) {
	name, sel, window, err := ParseRangeSelector(`response_ms{version="b",instance!="x"}[90s]`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "response_ms" || window != 90*time.Second || len(sel) != 2 {
		t.Errorf("parsed %q %v %v", name, sel, window)
	}
	for _, bad := range []string{"", "m", `m{v="x"}`, "m[5s] extra", "rate(m[5s])", "[5s]"} {
		if _, _, _, err := ParseRangeSelector(bad); err == nil {
			t.Errorf("ParseRangeSelector(%q) succeeded", bad)
		}
	}
}

func TestMomentsEndpointAndClient(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC))
	store := NewStore(WithClock(clk))
	for i, v := range []float64{1, 2, 3, 4} {
		store.Append("lat", Labels{"version": "b"}, v, clk.Now().Add(-time.Duration(4-i)*time.Second))
	}
	srv, err := httpx.NewServer("127.0.0.1:0", NewServer(store).Handler())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(context.Background())

	c := &Client{BaseURL: srv.URL()}
	m, err := c.Moments(context.Background(), `lat{version="b"}[30s]`)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count != 4 || m.Mean != 2.5 {
		t.Errorf("moments = %+v", m)
	}
	if _, err := c.Moments(context.Background(), `ghost[30s]`); err == nil {
		t.Error("ghost moments succeeded")
	}
	if _, err := c.Moments(context.Background(), `not a selector`); err == nil {
		t.Error("bad selector accepted")
	}
}

// benchStore seeds one series with a wide sample history: the shape of a
// long-running canary whose checks query minutes-wide windows.
func benchStore(b *testing.B, bucket time.Duration) (*Store, time.Time) {
	b.Helper()
	s := NewStore(WithSummaryBucket(bucket))
	base := time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC)
	// 100 samples/s — a proxy instrumenting a moderately busy service.
	for i := 0; i < DefaultMaxSamples; i++ {
		base = base.Add(10 * time.Millisecond)
		s.Append("bench_counter", nil, float64(i*2), base)
	}
	return s, base
}

func benchmarkWindowAggregate(b *testing.B, bucket time.Duration) {
	s, at := benchStore(b, bucket)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.WindowAggregate("increase", 0, "bench_counter", nil, time.Minute, at); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWindowAggregateSummaries exercises the bucket-summary fast
// path; BenchmarkWindowAggregateRawScan disables summaries to show what
// the same query costs rescanning raw samples.
func BenchmarkWindowAggregateSummaries(b *testing.B) {
	benchmarkWindowAggregate(b, DefaultSummaryBucket)
}

func BenchmarkWindowAggregateRawScan(b *testing.B) {
	benchmarkWindowAggregate(b, 0)
}

func TestStoreQuerier(t *testing.T) {
	clk := clock.NewManual(time.Date(2026, 7, 1, 12, 0, 0, 0, time.UTC))
	store := NewStore(WithClock(clk))
	store.Append("errs", nil, 7, clk.Now())
	q := StoreQuerier{Store: store}
	v, err := q.Query(context.Background(), "errs")
	if err != nil || v != 7 {
		t.Fatalf("Query = %v, %v", v, err)
	}
	m, err := q.Moments(context.Background(), "errs[1m]")
	if err != nil || m.Count != 1 || m.Mean != 7 {
		t.Fatalf("Moments = %+v, %v", m, err)
	}
	if _, err := q.Moments(context.Background(), "ghost[1m]"); !errors.Is(err, ErrNoData) {
		t.Errorf("ghost err = %v, want ErrNoData", err)
	}
}
