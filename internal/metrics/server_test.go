package metrics

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/httpx"
)

func startMetricsServer(t *testing.T, store *Store) (*httpx.Server, func()) {
	t.Helper()
	srv, err := httpx.NewServer("127.0.0.1:0", NewServer(store).Handler())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Start()
	return srv, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}
}

func TestServerQueryEndpoint(t *testing.T) {
	clk := clock.NewManual(t0)
	store := NewStore(WithClock(clk))
	store.Append("request_errors", Labels{"instance": "search:80"}, 4, clk.Now())
	srv, stop := startMetricsServer(t, store)
	defer stop()

	c := &Client{BaseURL: srv.URL()}
	got, err := c.Query(context.Background(), `request_errors{instance="search:80"}`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got != 4 {
		t.Errorf("got %v, want 4", got)
	}
}

func TestServerQueryErrors(t *testing.T) {
	store := NewStore()
	srv, stop := startMetricsServer(t, store)
	defer stop()
	c := &Client{BaseURL: srv.URL()}

	if _, err := c.Query(context.Background(), "ghost"); err == nil {
		t.Error("no-data query succeeded")
	} else if !strings.Contains(err.Error(), "no data") {
		t.Errorf("error = %v, want no-data message", err)
	}
	if _, err := c.Query(context.Background(), "m{bad"); err == nil {
		t.Error("syntax-error query succeeded")
	}
	if _, err := c.Query(context.Background(), ""); err == nil {
		t.Error("empty query succeeded")
	}
}

func TestServerIngest(t *testing.T) {
	clk := clock.NewManual(t0)
	store := NewStore(WithClock(clk))
	srv, stop := startMetricsServer(t, store)
	defer stop()
	c := &Client{BaseURL: srv.URL()}

	err := c.Push(context.Background(), []IngestSample{
		{Name: "cpu_busy", Labels: map[string]string{"container": "engine"}, Value: 0.4},
		{Name: "cpu_busy", Labels: map[string]string{"container": "proxy"}, Value: 0.2,
			UnixNanos: t0.UnixNano()},
	})
	if err != nil {
		t.Fatalf("Push: %v", err)
	}
	got, err := c.Query(context.Background(), "sum(cpu_busy)")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got < 0.6-1e-9 || got > 0.6+1e-9 {
		t.Errorf("sum = %v, want ≈ 0.6", got)
	}
}

func TestServerSeriesAndHealth(t *testing.T) {
	store := NewStore()
	store.Append("alpha", nil, 1, time.Now())
	store.Append("beta", nil, 1, time.Now())
	srv, stop := startMetricsServer(t, store)
	defer stop()

	var names []string
	if err := httpx.GetJSON(context.Background(), srv.URL()+"/api/v1/series", &names); err != nil {
		t.Fatalf("series: %v", err)
	}
	if len(names) != 2 || names[0] != "alpha" {
		t.Errorf("names = %v", names)
	}
	var health map[string]string
	if err := httpx.GetJSON(context.Background(), srv.URL()+"/-/healthy", &health); err != nil {
		t.Fatalf("health: %v", err)
	}
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}
}

func TestServerQueryGET(t *testing.T) {
	clk := clock.NewManual(t0)
	store := NewStore(WithClock(clk))
	store.Append("request_errors", Labels{"instance": "search:80"}, 4, clk.Now())
	srv, stop := startMetricsServer(t, store)
	defer stop()

	var resp queryResponse
	u := srv.URL() + "/api/v1/query?query=" + url.QueryEscape(`request_errors{instance="search:80"}`)
	if err := httpx.GetJSON(context.Background(), u, &resp); err != nil {
		t.Fatalf("GET: %v", err)
	}
	if resp.Status != "success" || resp.Data.Value != 4 {
		t.Errorf("GET answered %+v, want success with value 4", resp)
	}
	err := httpx.GetJSON(context.Background(), srv.URL()+"/api/v1/query?query=ghost", &resp)
	var apiErr *httpx.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(apiErr.Message, "no data") {
		t.Errorf("GET of a series with no data: %v, want 422 naming no data", err)
	}
}

// heldServer serves store's API and holds the first batch request until
// release is called; first is closed once that request has arrived.
type heldServer struct {
	url         string
	batches     atomic.Int32
	first, held chan struct{}
	release     func()
}

func startHeldServer(t *testing.T, store *Store) *heldServer {
	t.Helper()
	h := &heldServer{first: make(chan struct{}), held: make(chan struct{})}
	var once sync.Once
	h.release = func() { once.Do(func() { close(h.held) }) }
	api := NewServer(store).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/query" && h.batches.Add(1) == 1 {
			close(h.first)
			<-h.held
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(h.release) // a failed test must not leave Close waiting
	h.url = srv.URL
	return h
}

// waitClient waits until cond, called under c.mu, holds.
func waitClient(t *testing.T, c *Client, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		ok := cond()
		c.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		runtime.Gosched()
	}
}

// waitQueued waits until n queries wait in c's next batch and returns it.
func waitQueued(t *testing.T, c *Client, n int) *queryBatch {
	t.Helper()
	var b *queryBatch
	waitClient(t, c, fmt.Sprintf("queueing %d queries behind the batch in flight", n), func() bool {
		b = c.next
		return b != nil && len(b.exprs) == n
	})
	return b
}

type queryAnswer struct {
	v   float64
	err error
}

func goQuery(ctx context.Context, c *Client, expr string) <-chan queryAnswer {
	ch := make(chan queryAnswer, 1)
	go func() {
		v, err := c.Query(ctx, expr)
		ch <- queryAnswer{v, err}
	}()
	return ch
}

func TestQueryBatchGroupsConcurrentCallers(t *testing.T) {
	clk := clock.NewManual(t0)
	store := NewStore(WithClock(clk))
	const checks = 8
	for i := 0; i < checks; i++ {
		store.Append("errors_total", Labels{"check": strconv.Itoa(i)}, float64(i), clk.Now())
	}
	srv := startHeldServer(t, store)
	c := &Client{BaseURL: srv.url}

	answers := make([]<-chan queryAnswer, checks)
	query := func(i int) {
		answers[i] = goQuery(context.Background(), c, fmt.Sprintf(`errors_total{check="%d"}`, i))
	}
	query(0)
	<-srv.first
	for i := 1; i < checks; i++ {
		query(i)
	}
	waitQueued(t, c, checks-1)
	srv.release()
	for i, ch := range answers {
		a := <-ch
		if a.err != nil || a.v != float64(i) {
			t.Errorf("query %d = %v, %v; want %d", i, a.v, a.err, i)
		}
	}
	if n := srv.batches.Load(); n != 2 {
		t.Errorf("%d concurrent queries took %d requests, want 2", checks, n)
	}
}

func TestQueryBatchFailsOnlyBadExpression(t *testing.T) {
	clk := clock.NewManual(t0)
	store := NewStore(WithClock(clk))
	store.Append("up", nil, 1, clk.Now())
	srv := startHeldServer(t, store)
	c := &Client{BaseURL: srv.url}

	lead := goQuery(context.Background(), c, "up")
	<-srv.first
	// Values of the good expressions; each bad one must fail with the
	// server's message for it.
	exprs := []string{"up", "ghost", "m{bad", "up / 0", "up * 2"}
	values := map[string]float64{"up": 1, "up * 2": 2}
	messages := map[string]string{"ghost": "no data", "m{bad": "metrics:", "up / 0": "no finite value"}
	answers := make([]<-chan queryAnswer, len(exprs))
	for i, expr := range exprs {
		answers[i] = goQuery(context.Background(), c, expr)
		waitQueued(t, c, i+1)
	}
	srv.release()
	if a := <-lead; a.err != nil || a.v != 1 {
		t.Errorf("lead query = %v, %v; want 1", a.v, a.err)
	}
	for i, expr := range exprs {
		a := <-answers[i]
		if want, ok := values[expr]; ok {
			if a.err != nil || a.v != want {
				t.Errorf("%q = %v, %v; want %v", expr, a.v, a.err, want)
			}
			continue
		}
		prefix := fmt.Sprintf("metrics query %q: ", expr)
		if a.err == nil || !strings.HasPrefix(a.err.Error(), prefix) ||
			!strings.Contains(a.err.Error(), messages[expr]) {
			t.Errorf("%q = %v, %v; want an error %q…%q", expr, a.v, a.err, prefix, messages[expr])
		}
	}
	if n := srv.batches.Load(); n != 2 {
		t.Errorf("took %d requests, want 2", n)
	}
}

func TestQueryBatchCancelledCallers(t *testing.T) {
	// The provider never answers: each request waits until the client
	// gives it up, and is then reported on gone. (The server notices a
	// closed connection only once it has read the request body.)
	arrived := make(chan struct{}, 2)
	gone := make(chan struct{}, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		arrived <- struct{}{}
		<-r.Context().Done()
		gone <- struct{}{}
	}))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}
	within := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never happened", what)
		}
	}
	answer := func(ch <-chan queryAnswer, who string) {
		t.Helper()
		select {
		case a := <-ch:
			if !errors.Is(a.err, context.Canceled) || !strings.HasPrefix(a.err.Error(), "metrics query ") {
				t.Errorf("%s returned %v, want a wrapped context.Canceled", who, a.err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return while its batch was stuck", who)
		}
	}

	ctx0, cancel0 := context.WithCancel(context.Background())
	lead := goQuery(ctx0, c, "a")
	within(arrived, "the first batch's request")
	ctxA, cancelA := context.WithCancel(context.Background())
	ctxB, cancelB := context.WithCancel(context.Background())
	qa := goQuery(ctxA, c, "b")
	waitQueued(t, c, 1)
	qb := goQuery(ctxB, c, "c")
	second := waitQueued(t, c, 2)

	// The first batch's only caller leaves: the batch is cancelled, and
	// the two queued callers go out together.
	cancel0()
	answer(lead, "the first caller")
	within(gone, "cancelling the abandoned first batch")
	within(arrived, "the second batch's request")

	// One of two callers leaves: it returns at once, and the batch keeps
	// going for the other.
	cancelA()
	answer(qa, "the first of two callers")
	if second.ctx.Err() != nil {
		t.Fatal("batch cancelled while a caller still waits on it")
	}
	cancelB()
	answer(qb, "the last caller")
	within(gone, "cancelling the abandoned second batch")

	// With every batch abandoned, the client's sender exits.
	waitClient(t, c, "the sender exiting", func() bool { return !c.sending && c.next == nil })
}
