// Package loadgen is the workload generator of the evaluation — the
// standard-library substitute for the Apache JMeter instance the paper used
// to "simulate production traffic" (§5.1.2).
//
// It reproduces the paper's test suite: a pool of logged-in users issuing a
// weighted mix of Buy, Details, Products, and Search requests against the
// case-study gateway at a steady request rate after a ramp-up period, with
// per-request latency recording, 3-second moving-average series, and
// summary statistics (mean/min/max/sd/median) over arbitrary windows —
// exactly the numbers Figure 6 and Table 1 report.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/cookiejar"
	"sort"
	"strings"
	"sync"
	"time"

	"bifrost/internal/httpx"
)

// RequestKind enumerates the paper's four request types.
type RequestKind int

// The JMeter test-suite request types.
const (
	Buy RequestKind = iota + 1
	Details
	Products
	Search
)

// String implements fmt.Stringer.
func (k RequestKind) String() string {
	switch k {
	case Buy:
		return "buy"
	case Details:
		return "details"
	case Products:
		return "products"
	case Search:
		return "search"
	default:
		return fmt.Sprintf("RequestKind(%d)", int(k))
	}
}

// WeightedRequest gives one request kind a share of the mix.
type WeightedRequest struct {
	Kind   RequestKind
	Weight float64
}

// DefaultMix is the uniform four-request mix of the paper's test suite.
func DefaultMix() []WeightedRequest {
	return []WeightedRequest{
		{Kind: Buy, Weight: 1},
		{Kind: Details, Weight: 1},
		{Kind: Products, Weight: 1},
		{Kind: Search, Weight: 1},
	}
}

// Config parameterizes a load test.
type Config struct {
	// BaseURL is the application entry point (the gateway).
	BaseURL string
	// RPS is the steady request rate after ramp-up.
	RPS float64
	// Duration is the steady-state duration (excluding ramp-up).
	Duration time.Duration
	// RampUp linearly increases the rate from 0 to RPS ("a ramp up
	// period of 30 seconds to slowly increase the load").
	RampUp time.Duration
	// Users is the size of the logged-in user pool (default 25). Each
	// user keeps a cookie jar, so sticky sessions behave like browsers.
	Users int
	// Mix is the request mix; DefaultMix when nil.
	Mix []WeightedRequest
	// ProductIDs are the ids Details/Buy draw from.
	ProductIDs []string
	// SearchTerms are the queries Search draws from.
	SearchTerms []string
	// Seed makes the workload reproducible.
	Seed int64
	// MaxInFlight bounds concurrent requests (default 256).
	MaxInFlight int
}

// Sample is one completed request.
type Sample struct {
	// Offset is the time since the load test started.
	Offset time.Duration
	// Latency is the service time: request sent to response drained.
	Latency time.Duration
	// Sched is the request's intended start per the open-loop schedule;
	// Corrected is the latency measured from that intended start, so time
	// a request spent queued behind a stalled server (or the in-flight
	// cap) counts against it. This is the coordinated-omission-corrected
	// number: a generator that only measures Latency lets a 500ms server
	// stall vanish from the percentiles, because the requests that
	// *should* have been issued during the stall were silently delayed.
	Sched     time.Duration
	Corrected time.Duration
	Kind      RequestKind
	Status    int
	Err       bool
}

// Result collects a load test's samples.
type Result struct {
	Start   time.Time
	Samples []Sample
}

// Stats summarizes latencies in milliseconds, Table-1 style.
type Stats struct {
	Count  int
	Mean   float64
	Min    float64
	Max    float64
	SD     float64
	Median float64
	P99    float64
	// Errors counts failed requests (transport errors or HTTP ≥ 500).
	Errors int
}

// user is one logged-in synthetic client.
type user struct {
	token  string
	client *http.Client
}

// Run executes the load test until the configured duration (plus ramp-up)
// elapses or ctx is cancelled.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.BaseURL == "" || cfg.RPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need BaseURL, RPS and Duration")
	}
	if cfg.Users <= 0 {
		cfg.Users = 25
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = DefaultMix()
	}
	if len(cfg.ProductIDs) == 0 {
		cfg.ProductIDs = []string{"p-000"}
	}
	if len(cfg.SearchTerms) == 0 {
		cfg.SearchTerms = []string{"tv", "laptop", "phone"}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))

	users, err := loginUsers(ctx, cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{Start: time.Now()}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.MaxInFlight)

	total := cfg.RampUp + cfg.Duration
	deadline := res.Start.Add(total)

	// Open-loop dispatcher: a 10ms tick computes how many requests are
	// due given the (ramping) target rate and dispatches them. The
	// dispatcher never blocks on the in-flight cap — each request's
	// goroutine waits for its semaphore slot itself, with the clock on
	// the intended start already running, so a saturated or stalled
	// server inflates the corrected latencies instead of silently
	// slowing the schedule (coordinated omission).
	const tick = 10 * time.Millisecond
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var issued float64
	var due float64

loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case now := <-ticker.C:
			if now.After(deadline) {
				break loop
			}
			elapsed := now.Sub(res.Start)
			rate := cfg.RPS
			if cfg.RampUp > 0 && elapsed < cfg.RampUp {
				rate = cfg.RPS * float64(elapsed) / float64(cfg.RampUp)
			}
			due += rate * tick.Seconds()
			for issued < due {
				issued++
				u := users[rng.Intn(len(users))]
				kind := pickKind(rng, cfg.Mix)
				productID := cfg.ProductIDs[rng.Intn(len(cfg.ProductIDs))]
				term := cfg.SearchTerms[rng.Intn(len(cfg.SearchTerms))]
				intended := now
				wg.Add(1)
				go func() {
					defer wg.Done()
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						return
					}
					defer func() { <-sem }()
					s := issueRequest(ctx, cfg.BaseURL, u, kind, productID, term, res.Start)
					s.Sched = intended.Sub(res.Start)
					s.Corrected = time.Since(intended)
					mu.Lock()
					res.Samples = append(res.Samples, s)
					mu.Unlock()
				}()
			}
		}
	}
	wg.Wait()
	sort.Slice(res.Samples, func(i, j int) bool {
		return res.Samples[i].Offset < res.Samples[j].Offset
	})
	return res, nil
}

func loginUsers(ctx context.Context, cfg Config) ([]*user, error) {
	users := make([]*user, 0, cfg.Users)
	for i := 0; i < cfg.Users; i++ {
		jar, err := cookiejar.New(nil)
		if err != nil {
			return nil, fmt.Errorf("loadgen: cookie jar: %w", err)
		}
		client := &http.Client{Timeout: 30 * time.Second, Jar: jar}
		var login map[string]string
		err = httpx.PostJSON(ctx, cfg.BaseURL+"/auth/login", map[string]string{
			"email":    fmt.Sprintf("user-%d@example.com", i),
			"password": "secret",
		}, &login)
		if err != nil {
			return nil, fmt.Errorf("loadgen: login user %d: %w", i, err)
		}
		users = append(users, &user{token: login["token"], client: client})
	}
	return users, nil
}

func pickKind(rng *rand.Rand, mix []WeightedRequest) RequestKind {
	var total float64
	for _, m := range mix {
		total += m.Weight
	}
	x := rng.Float64() * total
	for _, m := range mix {
		x -= m.Weight
		if x < 0 {
			return m.Kind
		}
	}
	return mix[len(mix)-1].Kind
}

func issueRequest(ctx context.Context, base string, u *user, kind RequestKind,
	productID, term string, start time.Time) Sample {

	var req *http.Request
	var err error
	switch kind {
	case Buy:
		body := fmt.Sprintf(`{"productId":%q}`, productID)
		req, err = http.NewRequestWithContext(ctx, http.MethodPost,
			base+"/products/buy", strings.NewReader(body))
		if req != nil {
			req.Header.Set("Content-Type", "application/json")
		}
	case Details:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/products/"+productID, nil)
	case Products:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/products", nil)
	case Search:
		req, err = http.NewRequestWithContext(ctx, http.MethodGet,
			base+"/products/search?q="+term, nil)
	}
	if err != nil {
		return Sample{Offset: time.Since(start), Kind: kind, Err: true}
	}
	req.Header.Set("Authorization", "Bearer "+u.token)

	t0 := time.Now()
	resp, err := u.client.Do(req)
	latency := time.Since(t0)
	s := Sample{
		Offset:  t0.Sub(start),
		Latency: latency,
		Kind:    kind,
	}
	if err != nil {
		s.Err = true
		return s
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 16<<20))
	_ = resp.Body.Close()
	s.Status = resp.StatusCode
	s.Err = resp.StatusCode >= 500
	return s
}

// Window returns the samples with from ≤ Offset < to.
func (r *Result) Window(from, to time.Duration) []Sample {
	out := make([]Sample, 0, 256)
	for _, s := range r.Samples {
		if s.Offset >= from && s.Offset < to {
			out = append(out, s)
		}
	}
	return out
}

// StatsOf summarizes a sample slice.
func StatsOf(samples []Sample) Stats {
	st := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	lat := make([]float64, 0, len(samples))
	var sum float64
	for _, s := range samples {
		if s.Err {
			st.Errors++
		}
		ms := float64(s.Latency.Microseconds()) / 1000
		lat = append(lat, ms)
		sum += ms
		if ms < st.Min {
			st.Min = ms
		}
		if ms > st.Max {
			st.Max = ms
		}
	}
	st.Count = len(lat)
	if st.Count == 0 {
		return Stats{}
	}
	st.Mean = sum / float64(st.Count)
	var ss float64
	for _, v := range lat {
		d := v - st.Mean
		ss += d * d
	}
	if st.Count > 1 {
		st.SD = math.Sqrt(ss / float64(st.Count-1))
	}
	sort.Float64s(lat)
	mid := st.Count / 2
	if st.Count%2 == 1 {
		st.Median = lat[mid]
	} else {
		st.Median = (lat[mid-1] + lat[mid]) / 2
	}
	st.P99 = lat[(st.Count-1)*99/100]
	return st
}

// CorrectedStatsOf summarizes the coordinated-omission-corrected latencies
// of a sample slice: each sample contributes its Corrected value (latency
// from the intended start) instead of its service time.
func CorrectedStatsOf(samples []Sample) Stats {
	shifted := make([]Sample, len(samples))
	for i, s := range samples {
		s.Latency = s.Corrected
		shifted[i] = s
	}
	return StatsOf(shifted)
}

// StatsWindow summarizes the samples between from and to.
func (r *Result) StatsWindow(from, to time.Duration) Stats {
	return StatsOf(r.Window(from, to))
}

// SeriesPoint is one point of a moving-average series.
type SeriesPoint struct {
	// Offset is the window end, in seconds since test start.
	OffsetSeconds float64
	// MeanMillis is the average latency over the window.
	MeanMillis float64
	// Count is the number of samples in the window.
	Count int
}

// MovingAverage computes the paper's Figure-6 series: the mean latency over
// a sliding window (the paper uses 3 seconds), sampled every second.
func (r *Result) MovingAverage(window time.Duration) []SeriesPoint {
	if len(r.Samples) == 0 {
		return nil
	}
	end := r.Samples[len(r.Samples)-1].Offset
	points := make([]SeriesPoint, 0, int(end/time.Second)+1)
	for at := window; at <= end; at += time.Second {
		var sum float64
		var n int
		for _, s := range r.Window(at-window, at) {
			sum += float64(s.Latency.Microseconds()) / 1000
			n++
		}
		p := SeriesPoint{OffsetSeconds: at.Seconds(), Count: n}
		if n > 0 {
			p.MeanMillis = sum / float64(n)
		}
		points = append(points, p)
	}
	return points
}
