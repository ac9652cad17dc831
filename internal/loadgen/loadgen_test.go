package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/httpx"
)

// stubShop answers the gateway surface loadgen needs.
func stubShop(t *testing.T, delay time.Duration) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /auth/login", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"token": "tok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestRunProducesSteadyTraffic(t *testing.T) {
	ts, hits := stubShop(t, 0)
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      200,
		Duration: 500 * time.Millisecond,
		Users:    5,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// ~100 requests expected; allow generous slop for CI jitter.
	if len(res.Samples) < 50 || len(res.Samples) > 150 {
		t.Errorf("samples = %d, want ≈ 100", len(res.Samples))
	}
	if hits.Load() == 0 {
		t.Error("backend never hit")
	}
	// Samples are sorted by offset.
	for i := 1; i < len(res.Samples); i++ {
		if res.Samples[i].Offset < res.Samples[i-1].Offset {
			t.Fatal("samples not sorted")
		}
	}
	st := StatsOf(res.Samples)
	if st.Count != len(res.Samples) || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Mean <= 0 || st.Min <= 0 || st.Max < st.Min || st.Median <= 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRampUpIncreasesRate(t *testing.T) {
	ts, _ := stubShop(t, 0)
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      300,
		RampUp:   400 * time.Millisecond,
		Duration: 400 * time.Millisecond,
		Users:    3,
		Seed:     2,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	early := len(res.Window(0, 200*time.Millisecond))
	late := len(res.Window(400*time.Millisecond, 600*time.Millisecond))
	if early >= late {
		t.Errorf("ramp-up not ramping: early=%d late=%d", early, late)
	}
}

func TestMixWeightsRespected(t *testing.T) {
	ts, _ := stubShop(t, 0)
	res, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		RPS:      400,
		Duration: 500 * time.Millisecond,
		Users:    2,
		Seed:     3,
		Mix: []WeightedRequest{
			{Kind: Details, Weight: 3},
			{Kind: Search, Weight: 1},
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	counts := map[RequestKind]int{}
	for _, s := range res.Samples {
		counts[s.Kind]++
	}
	if counts[Buy] != 0 || counts[Products] != 0 {
		t.Errorf("unexpected kinds: %v", counts)
	}
	if counts[Details] <= counts[Search] {
		t.Errorf("mix not respected: %v", counts)
	}
}

func TestErrorsCounted(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /auth/login", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"token": "tok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteError(w, http.StatusInternalServerError, "boom")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	res, err := Run(context.Background(), Config{
		BaseURL: ts.URL, RPS: 100, Duration: 200 * time.Millisecond, Users: 1, Seed: 4,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := StatsOf(res.Samples)
	if st.Errors != st.Count || st.Count == 0 {
		t.Errorf("errors = %d of %d", st.Errors, st.Count)
	}
}

func TestMovingAverageSeries(t *testing.T) {
	r := &Result{}
	for i := 0; i < 100; i++ {
		r.Samples = append(r.Samples, Sample{
			Offset:  time.Duration(i) * 100 * time.Millisecond,
			Latency: time.Duration(20+i%5) * time.Millisecond,
		})
	}
	series := r.MovingAverage(3 * time.Second)
	if len(series) == 0 {
		t.Fatal("no series points")
	}
	for _, p := range series {
		if p.Count > 0 && (p.MeanMillis < 19 || p.MeanMillis > 25) {
			t.Errorf("point %+v outside expected band", p)
		}
	}
}

func TestStatsKnownValues(t *testing.T) {
	samples := []Sample{
		{Latency: 10 * time.Millisecond},
		{Latency: 20 * time.Millisecond},
		{Latency: 30 * time.Millisecond},
		{Latency: 40 * time.Millisecond},
	}
	st := StatsOf(samples)
	if st.Mean != 25 || st.Min != 10 || st.Max != 40 || st.Median != 25 {
		t.Errorf("stats = %+v", st)
	}
	// Sample SD of {10,20,30,40} = sqrt(500/3).
	want := math.Sqrt(500.0 / 3.0)
	if math.Abs(st.SD-want) > 1e-9 {
		t.Errorf("sd = %v, want %v", st.SD, want)
	}
	if StatsOf(nil).Count != 0 {
		t.Error("empty stats wrong")
	}
}

func TestWindowBounds(t *testing.T) {
	r := &Result{Samples: []Sample{
		{Offset: 1 * time.Second},
		{Offset: 2 * time.Second},
		{Offset: 3 * time.Second},
	}}
	w := r.Window(1*time.Second, 3*time.Second) // [1s, 3s)
	if len(w) != 2 {
		t.Errorf("window = %d samples, want 2", len(w))
	}
	st := r.StatsWindow(0, 10*time.Second)
	if st.Count != 3 {
		t.Errorf("count = %d", st.Count)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://127.0.0.1:1", RPS: 10, Duration: time.Millisecond, Users: 1}); err == nil {
		t.Error("unreachable login accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	ts, _ := stubShop(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = Run(ctx, Config{
			BaseURL: ts.URL, RPS: 50, Duration: 30 * time.Second, Users: 1, Seed: 5,
		})
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancellation")
	}
}

func TestRequestKindString(t *testing.T) {
	if Buy.String() != "buy" || Search.String() != "search" {
		t.Error("RequestKind strings wrong")
	}
	if RequestKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
}

// TestCoordinatedOmissionCorrection injects a 500ms server stall behind a
// 1-slot in-flight cap: the requests the schedule wanted to issue during
// the stall are delayed, so their *service* latencies look healthy, but the
// corrected latencies (measured from each request's intended start) must
// surface the stall in the tail. A generator that blocks its dispatcher on
// the cap — the pre-fix behavior — hides the stall entirely.
func TestCoordinatedOmissionCorrection(t *testing.T) {
	var stalled atomic.Bool
	var reqs atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /auth/login", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"token": "tok"})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		// Exactly one request pays the stall directly; everything queued
		// behind it pays in waiting time only.
		if n := reqs.Add(1); n == 20 && stalled.CompareAndSwap(false, true) {
			time.Sleep(500 * time.Millisecond)
		}
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"ok": "1"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		RPS:         200,
		Duration:    1200 * time.Millisecond,
		Users:       4,
		Seed:        7,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !stalled.Load() {
		t.Fatal("stall was never triggered")
	}
	service := StatsOf(res.Samples)
	corrected := CorrectedStatsOf(res.Samples)

	// ~100 of ~240 scheduled requests queue behind the stall: far more
	// than 1% of samples, so the corrected p99 must show hundreds of ms.
	if corrected.P99 < 200 {
		t.Errorf("corrected p99 = %.1fms, want ≥ 200ms (stall hidden)", corrected.P99)
	}
	// Exactly one sample has a ~500ms service time — below 1% of the
	// population, so the uncorrected p99 stays oblivious.
	if service.P99 > 150 {
		t.Errorf("service p99 = %.1fms, want < 150ms (only one request pays the stall directly)", service.P99)
	}
	if corrected.P99 < 2*service.P99 {
		t.Errorf("corrected p99 %.1fms not > 2× service p99 %.1fms", corrected.P99, service.P99)
	}
	// Corrected ≥ service for every sample, and Sched is monotone-ish
	// with Offset (requests start at or after their intended time).
	for _, s := range res.Samples {
		if s.Corrected < s.Latency {
			t.Fatalf("sample corrected %v < service %v", s.Corrected, s.Latency)
		}
	}
}
