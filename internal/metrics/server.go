package metrics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/httpx"
)

// Server exposes a Store over HTTP with a Prometheus-shaped API:
//
//	GET  /api/v1/query?query=EXPR     → {"status":"success","data":{"value":N}}
//	POST /api/v1/query                → a batch: the body is a JSON array of
//	                                    expressions, evaluated at one store
//	                                    instant; the answer holds one entry
//	                                    per expression, in request order:
//	                                    {"status":"success","data":
//	                                    [{"value":N} | {"error":"…"}, …]}
//	GET  /api/v1/moments?query=SEL    → window moments of a range selector
//	                                    (count/mean/variance/min/max), the
//	                                    populations of a `compare` check
//	POST /api/v1/ingest               → bulk sample ingestion (JSON)
//	GET  /api/v1/series               → distinct metric names
//	GET  /-/healthy                   → liveness
type Server struct {
	store *Store
}

// NewServer wraps a store in the HTTP API.
func NewServer(store *Store) *Server { return &Server{store: store} }

// queryResponse is the JSON envelope of /api/v1/query.
type queryResponse struct {
	Status string    `json:"status"`
	Data   queryData `json:"data"`
	Error  string    `json:"error,omitempty"`
}

type queryData struct {
	Value float64 `json:"value"`
}

// batchResponse is the JSON envelope of a batch POST to /api/v1/query.
type batchResponse struct {
	Status string        `json:"status"`
	Data   []batchResult `json:"data"`
	Error  string        `json:"error,omitempty"`
}

// batchResult is one expression's entry in a batch: its value, or the
// error that evaluating it returned.
type batchResult struct {
	Value *float64 `json:"value,omitempty"`
	Error string   `json:"error,omitempty"`
}

// momentsResponse is the JSON envelope of /api/v1/moments.
type momentsResponse struct {
	Status string  `json:"status"`
	Data   Moments `json:"data"`
	Error  string  `json:"error,omitempty"`
}

// IngestSample is one pushed sample in an ingest request.
type IngestSample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// UnixNanos is the sample time; zero means "now" on the server.
	UnixNanos int64 `json:"unixNanos,omitempty"`
}

// Handler returns the API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/query", s.handleQuery)
	mux.HandleFunc("POST /api/v1/query", s.handleQueryBatch)
	mux.HandleFunc("GET /api/v1/moments", s.handleMoments)
	mux.HandleFunc("POST /api/v1/ingest", s.handleIngest)
	mux.HandleFunc("POST /api/v1/federate", s.handleFederate)
	mux.HandleFunc("GET /api/v1/series", s.handleSeries)
	mux.HandleFunc("GET /-/healthy", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("query")
	if expr == "" {
		httpx.WriteError(w, http.StatusBadRequest, "missing query parameter")
		return
	}
	v, err := s.evalQuery(expr, s.store.clk.Now())
	if err != nil {
		httpx.WriteJSON(w, http.StatusUnprocessableEntity, queryResponse{
			Status: "error", Error: err.Error(),
		})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, queryResponse{
		Status: "success", Data: queryData{Value: v},
	})
}

// handleQueryBatch answers a batch of expressions at one store instant.
// An expression that fails to evaluate fails only its own entry.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	var exprs []string
	if err := httpx.ReadJSON(r, &exprs); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	at := s.store.clk.Now()
	values := make([]float64, len(exprs))
	results := make([]batchResult, len(exprs))
	for i, expr := range exprs {
		v, err := s.evalQuery(expr, at)
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		values[i] = v
		results[i].Value = &values[i]
	}
	httpx.WriteJSON(w, http.StatusOK, batchResponse{Status: "success", Data: results})
}

// evalQuery evaluates one expression of /api/v1/query, in either form, at
// the store instant at. A NaN or infinite result (a ratio over no
// traffic) is an error, since JSON has no number for it.
func (s *Server) evalQuery(expr string, at time.Time) (float64, error) {
	v, err := s.store.Query(expr, at)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		return 0, fmt.Errorf("metrics: %q has no finite value (%v)", expr, v)
	}
	return v, err
}

func (s *Server) handleMoments(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("query")
	if expr == "" {
		httpx.WriteError(w, http.StatusBadRequest, "missing query parameter")
		return
	}
	name, selector, window, err := ParseRangeSelector(expr)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	m, err := s.store.WindowMoments(name, selector, window, s.store.clk.Now())
	if err != nil {
		httpx.WriteJSON(w, http.StatusUnprocessableEntity, momentsResponse{
			Status: "error", Error: err.Error(),
		})
		return
	}
	httpx.WriteJSON(w, http.StatusOK, momentsResponse{Status: "success", Data: m})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var samples []IngestSample
	if err := httpx.ReadJSON(r, &samples); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	now := s.store.clk.Now()
	for _, sm := range samples {
		t := now
		if sm.UnixNanos != 0 {
			t = time.Unix(0, sm.UnixNanos)
		}
		s.store.Append(sm.Name, Labels(sm.Labels), sm.Value, t)
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]int{"ingested": len(samples)})
}

// handleFederate ingests one delta batch from a federation agent. A
// duplicate batch answers 200 with applied=false (so re-delivery is
// silent); a malformed batch answers 400 so the agent drops it instead of
// retrying forever.
func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) {
	var batch DeltaBatch
	if err := httpx.ReadJSON(r, &batch); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	applied, err := s.store.ApplyDelta(batch)
	if err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	httpx.WriteJSON(w, http.StatusOK, FederateResponse{Applied: applied, Seq: batch.Seq})
}

// FederateResponse acknowledges one delta batch.
type FederateResponse struct {
	Applied bool   `json:"applied"`
	Seq     uint64 `json:"seq"`
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, s.store.SeriesNames())
}

// Client queries a metrics server; this is what the engine's metric
// evaluating functions use, mirroring the paper's "providers: prometheus".
// A Client must not be copied after its first query.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string

	mu sync.Mutex
	// sending is set while one of the client's batches is in flight;
	// next gathers the queries that arrive meanwhile.
	sending bool
	next    *queryBatch
}

// queryBatch is one batch request. Its sender fills in results or err
// before it closes done. The request runs under ctx, which is cancelled
// once it is answered or every caller in it has returned.
type queryBatch struct {
	exprs   []string
	results []batchResult
	err     error
	done    chan struct{}
	ctx     context.Context
	cancel  context.CancelFunc
	// waiting counts the callers that have not returned; guarded by the
	// client's mu.
	waiting int
}

// Query evaluates expr remotely and returns the scalar result. ErrNoData
// style failures surface as errors with the server's message.
//
// Queries are group-committed: one that arrives while none of the
// client's batches is in flight goes out at once, and those that arrive
// during a batch go out together in the next one, as a single POST
// /api/v1/query. A check has at most one execution in flight, so a batch
// holds at most one query per check on this provider; a strategy's
// checks come due together and share one or two requests. A caller whose
// ctx ends returns at once, and a batch whose callers have all returned
// is cancelled.
func (c *Client) Query(ctx context.Context, expr string) (float64, error) {
	c.mu.Lock()
	b, lead := c.next, false
	if b == nil {
		b = newQueryBatch()
		if c.sending {
			c.next = b
		} else {
			c.sending, lead = true, true
		}
	}
	i := len(b.exprs)
	b.exprs = append(b.exprs, expr)
	b.waiting++
	c.mu.Unlock()
	if lead {
		go c.flush(b)
	}

	select {
	case <-b.done:
	case <-ctx.Done():
		c.leave(b)
		return 0, fmt.Errorf("metrics query %q: %w", expr, ctx.Err())
	}
	if b.err != nil {
		var apiErr *httpx.Error
		if errors.As(b.err, &apiErr) {
			return 0, fmt.Errorf("metrics query %q: %s", expr, apiErr.Message)
		}
		return 0, fmt.Errorf("metrics query %q: %w", expr, b.err)
	}
	switch r := b.results[i]; {
	case r.Error != "":
		return 0, fmt.Errorf("metrics query %q: %s", expr, r.Error)
	case r.Value == nil:
		return 0, fmt.Errorf("metrics query %q: no value in the batch response", expr)
	default:
		return *r.Value, nil
	}
}

func newQueryBatch() *queryBatch {
	ctx, cancel := context.WithCancel(context.Background())
	return &queryBatch{done: make(chan struct{}), ctx: ctx, cancel: cancel}
}

// flush sends b, then each batch that gathered while the one before it
// was in flight, until none did.
func (c *Client) flush(b *queryBatch) {
	for b != nil {
		c.send(b)
		c.mu.Lock()
		b, c.next = c.next, nil
		c.sending = b != nil
		c.mu.Unlock()
	}
}

// send posts b and hands its answer to its callers.
func (c *Client) send(b *queryBatch) {
	defer b.cancel()
	defer close(b.done)
	var resp batchResponse
	if err := httpx.PostJSON(b.ctx, c.BaseURL+"/api/v1/query", b.exprs, &resp); err != nil {
		b.err = err
		return
	}
	switch {
	case resp.Status != "success":
		b.err = errors.New(resp.Error)
	case len(resp.Data) != len(b.exprs):
		b.err = fmt.Errorf("batch of %d answered with %d results", len(b.exprs), len(resp.Data))
	default:
		b.results = resp.Data
	}
}

// leave takes a caller whose context ended out of b. When it was the last
// one, b is cancelled, and dropped if it has not gone out yet.
func (c *Client) leave(b *queryBatch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b.waiting--; b.waiting > 0 {
		return
	}
	b.cancel()
	if c.next == b {
		c.next = nil
	}
}

// Moments evaluates a range selector like `response_ms{version="x"}[30s]`
// remotely and returns the pooled window moments of the matched samples.
func (c *Client) Moments(ctx context.Context, rangeExpr string) (Moments, error) {
	u := c.BaseURL + "/api/v1/moments?query=" + url.QueryEscape(rangeExpr)
	var resp momentsResponse
	if err := httpx.GetJSON(ctx, u, &resp); err != nil {
		var apiErr *httpx.Error
		if errors.As(err, &apiErr) {
			return Moments{}, fmt.Errorf("metrics moments %q: %s", rangeExpr, apiErr.Message)
		}
		return Moments{}, fmt.Errorf("metrics moments %q: %w", rangeExpr, err)
	}
	if resp.Status != "success" {
		return Moments{}, fmt.Errorf("metrics moments %q: %s", rangeExpr, resp.Error)
	}
	return resp.Data, nil
}

// Push ingests samples remotely.
func (c *Client) Push(ctx context.Context, samples []IngestSample) error {
	return httpx.PostJSON(ctx, c.BaseURL+"/api/v1/ingest", samples, nil)
}

// PushDelta ships one federation delta batch to the store's federate
// endpoint.
func (c *Client) PushDelta(ctx context.Context, batch DeltaBatch) (FederateResponse, error) {
	var resp FederateResponse
	err := httpx.PostJSON(ctx, c.BaseURL+"/api/v1/federate", batch, &resp)
	return resp, err
}

// StoreQuerier adapts an in-process Store to the query interfaces the
// DSL's checks use (dsl.Querier and dsl.MomentsQuerier), so an engine and
// its metrics store can be embedded in one process without HTTP.
type StoreQuerier struct {
	Store *Store
}

// Query evaluates expr at the store clock's current time.
func (q StoreQuerier) Query(_ context.Context, expr string) (float64, error) {
	return q.Store.QueryNow(expr)
}

// Moments evaluates a range selector at the store clock's current time.
func (q StoreQuerier) Moments(_ context.Context, rangeExpr string) (Moments, error) {
	name, selector, window, err := ParseRangeSelector(rangeExpr)
	if err != nil {
		return Moments{}, err
	}
	return q.Store.WindowMoments(name, selector, window, q.Store.clk.Now())
}

// Target is one scrape endpoint.
type Target struct {
	// URL is the full exposition endpoint, e.g. "http://host:1234/metrics".
	URL string
	// Instance is added as the "instance" label on every scraped series,
	// e.g. "search:80" — the label the paper's example query selects on.
	Instance string
	// Extra labels merged into every scraped series.
	Extra Labels
}

// Scraper periodically pulls exposition endpoints into a Store, playing
// the role of the Prometheus scrape loop (plus cAdvisor's push, when the
// sysmon package registers its gauges on a scraped registry).
type Scraper struct {
	store    *Store
	interval time.Duration
	clk      clock.Clock

	mu      sync.Mutex
	targets []Target

	stop chan struct{}
	done chan struct{}
}

// NewScraper creates a scraper; call Start to begin scraping.
func NewScraper(store *Store, interval time.Duration, clk clock.Clock) *Scraper {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Scraper{
		store:    store,
		interval: interval,
		clk:      clk,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// AddTarget registers a scrape target (safe while running).
func (s *Scraper) AddTarget(t Target) {
	s.mu.Lock()
	s.targets = append(s.targets, t)
	s.mu.Unlock()
}

// Start launches the scrape loop.
func (s *Scraper) Start() {
	go func() {
		defer close(s.done)
		ticker := s.clk.NewTicker(s.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C():
				s.ScrapeOnce(context.Background())
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the scrape loop and waits for it to exit.
func (s *Scraper) Stop() {
	close(s.stop)
	<-s.done
}

// ScrapeOnce scrapes every target a single time. Errors are recorded as
// the scrape_errors_total counter rather than failing the loop, because a
// temporarily unreachable service must not kill monitoring.
func (s *Scraper) ScrapeOnce(ctx context.Context) {
	s.mu.Lock()
	targets := make([]Target, len(s.targets))
	copy(targets, s.targets)
	s.mu.Unlock()

	now := s.clk.Now()
	for _, t := range targets {
		if err := s.scrapeTarget(ctx, t, now); err != nil {
			s.store.Append("scrape_errors_total", Labels{"instance": t.Instance}, 1, now)
		}
	}
}

func (s *Scraper) scrapeTarget(ctx context.Context, t Target, now time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL, nil)
	if err != nil {
		return err
	}
	resp, err := httpx.Client.Do(req)
	if err != nil {
		return err
	}
	defer httpx.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scrape %s: status %d", t.URL, resp.StatusCode)
	}
	points, err := ParseExposition(resp.Body)
	if err != nil {
		return err
	}
	for _, p := range points {
		labels := p.Labels
		if t.Instance != "" {
			labels = labels.Merge(Labels{"instance": t.Instance})
		}
		if len(t.Extra) > 0 {
			labels = labels.Merge(t.Extra)
		}
		s.store.Append(p.Name, labels, p.Value, now)
	}
	return nil
}
