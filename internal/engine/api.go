package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"bifrost/internal/analysis"
	"bifrost/internal/core"
	"bifrost/internal/httpx"
)

// CompileFunc turns DSL source into an executable strategy. The API takes
// it as a dependency so the engine package does not import the dsl package
// (cmd wiring passes dsl-based compilation in).
type CompileFunc func(src string) (*core.Strategy, error)

// ExpandedStrategy is one concrete run produced from a strategy source:
// template sources (vars/matrix) expand to several, plain sources to one.
// Source is standalone DSL for exactly this run — it is what the engine
// journals, so recovery recompiles the concrete run, never the template.
type ExpandedStrategy struct {
	Strategy *core.Strategy
	Source   string
	// Vars are the template bindings this run was stamped out with (nil
	// for non-templates); surfaced for labeling and debugging.
	Vars map[string]string
}

// ExpandFunc expands DSL source into one or more concrete runs. The API
// takes it as a dependency for the same reason it takes CompileFunc: the
// engine package must not import the dsl package.
type ExpandFunc func(src string) ([]ExpandedStrategy, error)

// API is the engine's REST interface (v2), used by the Bifrost CLI, the
// dashboard, and any release automation (the paper mentions Jenkins jobs
// driving the CLI). Runs are first-class lifecycle resources under
// /api/v2/runs:
//
//	POST   /api/v2/runs                 schedule (body {"yaml": ...}); ?dry-run=true
//	                                    validates and returns the analysis report
//	                                    without enacting
//	GET    /api/v2/runs                 list run statuses
//	GET    /api/v2/runs/{name}          one run status
//	DELETE /api/v2/runs/{name}          abort
//	POST   /api/v2/runs/{name}/pause    suspend at the current state
//	POST   /api/v2/runs/{name}/resume   continue (body {"gen": N} optional)
//	POST   /api/v2/runs/{name}/promote  manual success gate decision (body {"target": ...} optional)
//	POST   /api/v2/runs/{name}/rollback manual failure gate decision
//	GET    /api/v2/runs/{name}/events   per-run event history (?n=)
//	GET    /api/v2/events               recent events across runs (?n=)
//	GET    /api/v2/events/stream        live Server-Sent Events (?strategy=, ?replay=)
//
// Errors are application/problem+json documents with a machine-readable
// "code" field (see httpx.Problem).
type API struct {
	eng     *Engine
	compile CompileFunc
	expand  ExpandFunc
}

// NewAPI wraps an engine in the REST API.
func NewAPI(eng *Engine, compile CompileFunc) *API {
	return &API{eng: eng, compile: compile}
}

// WithExpander enables template scheduling: POST /api/v2/runs expands the
// source through fn and schedules every resulting run (a matrix template
// answers with the list of scheduled run statuses). Without an expander,
// scheduling falls back to single-run compilation.
func (a *API) WithExpander(fn ExpandFunc) *API {
	a.expand = fn
	return a
}

// ScheduleRequest is the POST /api/v2/runs payload.
type ScheduleRequest struct {
	// YAML is the strategy in the Bifrost DSL.
	YAML string `json:"yaml"`
}

// DryRunResponse is the result of POST /api/v2/runs?dry-run=true: the
// strategy compiled and analyzed, but not enacted.
type DryRunResponse struct {
	Strategy string           `json:"strategy"`
	Valid    bool             `json:"valid"`
	Analysis *analysis.Report `json:"analysis"`
}

// ResumeRequest is the POST /api/v2/runs/{name}/resume payload. Gen is the
// pause generation from PauseResponse; zero resumes unconditionally.
type ResumeRequest struct {
	Gen int `json:"gen"`
}

// DecisionRequest is the payload of the promote and rollback endpoints.
// Target optionally names the successor state; empty picks the current
// state's success (promote) or failure (rollback) path.
type DecisionRequest struct {
	Target string `json:"target"`
}

// PauseResponse is returned by the pause endpoint.
type PauseResponse struct {
	Strategy string `json:"strategy"`
	PauseGen int    `json:"pauseGen"`
}

// Stable machine-readable error codes of the problem+json contract.
const (
	CodeBadRequest      = "bad_request"
	CodeCompileFailed   = "compile_failed"
	CodeInvalidStrategy = "invalid_strategy"
	CodeAlreadyRunning  = "already_running"
	CodeNotFound        = "not_found"
	CodeRunFinished     = "run_finished"
	CodeNotPaused       = "not_paused"
	CodeAlreadyPaused   = "already_paused"
	CodeStaleResume     = "stale_resume"
	CodeUnknownState    = "unknown_state"
	CodeEngineClosed    = "engine_closed"
	CodeNotImplemented  = "not_implemented"
)

// Handler returns the API handler.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v2/runs", a.handleSchedule)
	mux.HandleFunc("GET /api/v2/runs", a.handleList)
	mux.HandleFunc("GET /api/v2/runs/{name}", a.handleGet)
	mux.HandleFunc("DELETE /api/v2/runs/{name}", a.handleAbort)
	mux.HandleFunc("POST /api/v2/runs/{name}/pause", a.handlePause)
	mux.HandleFunc("POST /api/v2/runs/{name}/resume", a.handleResume)
	mux.HandleFunc("POST /api/v2/runs/{name}/promote", a.handlePromote)
	mux.HandleFunc("POST /api/v2/runs/{name}/rollback", a.handleRollback)
	mux.HandleFunc("GET /api/v2/runs/{name}/events", a.handleRunEvents)
	mux.HandleFunc("GET /api/v2/events", a.handleEvents)
	mux.HandleFunc("GET /api/v2/events/stream", a.handleEventStream)

	mux.HandleFunc("GET /-/healthy", func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// problem writes one typed API error.
func (a *API) problem(w http.ResponseWriter, status int, code, detail string) {
	httpx.WriteProblem(w, httpx.Problem{Status: status, Code: code, Detail: detail})
}

// engineProblem maps a typed engine error onto the problem contract.
func (a *API) engineProblem(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		a.problem(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, ErrAlreadyRunning):
		a.problem(w, http.StatusConflict, CodeAlreadyRunning, err.Error())
	case errors.Is(err, ErrFinished):
		a.problem(w, http.StatusConflict, CodeRunFinished, err.Error())
	case errors.Is(err, ErrNotPaused):
		a.problem(w, http.StatusConflict, CodeNotPaused, err.Error())
	case errors.Is(err, ErrAlreadyPaused):
		a.problem(w, http.StatusConflict, CodeAlreadyPaused, err.Error())
	case errors.Is(err, ErrStaleResume):
		a.problem(w, http.StatusConflict, CodeStaleResume, err.Error())
	case errors.Is(err, ErrUnknownState):
		a.problem(w, http.StatusUnprocessableEntity, CodeUnknownState, err.Error())
	case errors.Is(err, ErrEngineClosed):
		// The engine is draining for a restart; the strategy itself is
		// fine — clients should retry against the replacement.
		a.problem(w, http.StatusServiceUnavailable, CodeEngineClosed, err.Error())
	default:
		a.problem(w, http.StatusUnprocessableEntity, CodeInvalidStrategy, err.Error())
	}
}

func isDryRun(r *http.Request) bool {
	switch r.URL.Query().Get("dry-run") {
	case "", "0", "false":
		return false
	default:
		return true
	}
}

func (a *API) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if a.compile == nil {
		a.problem(w, http.StatusNotImplemented, CodeNotImplemented,
			"engine has no strategy compiler")
		return
	}
	var req ScheduleRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		a.problem(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	exps, err := a.expandAll(req.YAML)
	if err != nil {
		a.problem(w, http.StatusUnprocessableEntity, CodeCompileFailed, err.Error())
		return
	}
	if isDryRun(r) {
		reports := make([]DryRunResponse, 0, len(exps))
		for _, ex := range exps {
			report, err := analysis.Analyze(ex.Strategy)
			if err != nil {
				a.problem(w, http.StatusUnprocessableEntity, CodeInvalidStrategy,
					fmt.Sprintf("run %q: %v", ex.Strategy.Name, err))
				return
			}
			reports = append(reports, DryRunResponse{
				Strategy: ex.Strategy.Name, Valid: true, Analysis: report,
			})
		}
		if len(reports) == 1 {
			httpx.WriteJSON(w, http.StatusOK, reports[0])
		} else {
			httpx.WriteJSON(w, http.StatusOK, reports)
		}
		return
	}
	// Each run's own (expanded) source rides into the run journal so a
	// restarted engine can recompile and resume it standalone.
	scheduled := make([]*Run, 0, len(exps))
	for _, ex := range exps {
		run, err := a.eng.EnactSource(ex.Strategy, ex.Source)
		if err != nil {
			// Scheduling a template is atomic: a name clash or shutdown
			// partway through must not leave half the matrix running.
			a.unwind(scheduled)
			if len(scheduled) > 0 {
				err = fmt.Errorf("run %q: %w (%d already-scheduled sibling run(s) aborted)",
					ex.Strategy.Name, err, len(scheduled))
			}
			a.engineProblem(w, err)
			return
		}
		scheduled = append(scheduled, run)
	}
	if len(scheduled) == 1 {
		httpx.WriteJSON(w, http.StatusAccepted, scheduled[0].Status())
		return
	}
	statuses := make([]Status, 0, len(scheduled))
	for _, run := range scheduled {
		statuses = append(statuses, run.Status())
	}
	httpx.WriteJSON(w, http.StatusAccepted, statuses)
}

// expandAll resolves the request source into concrete runs, via the
// expander when one is wired, else single-run compilation.
func (a *API) expandAll(src string) ([]ExpandedStrategy, error) {
	if a.expand != nil {
		exps, err := a.expand(src)
		if err != nil {
			return nil, err
		}
		if len(exps) == 0 {
			return nil, fmt.Errorf("template expanded to no runs")
		}
		return exps, nil
	}
	s, err := a.compile(src)
	if err != nil {
		return nil, err
	}
	return []ExpandedStrategy{{Strategy: s, Source: src}}, nil
}

// unwind aborts and removes runs scheduled by a partially failed template
// schedule, waiting briefly for each abort to land. Best-effort: a run
// that will not die keeps its journal and is reported by list as aborted.
func (a *API) unwind(runs []*Run) {
	for _, run := range runs {
		run.Abort()
	}
	for _, run := range runs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = run.Wait(ctx)
		cancel()
		_ = a.eng.Remove(run.Status().Strategy)
	}
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	runs := a.eng.Runs()
	statuses := make([]Status, 0, len(runs))
	for _, run := range runs {
		statuses = append(statuses, run.Status())
	}
	httpx.WriteJSON(w, http.StatusOK, statuses)
}

func (a *API) handleGet(w http.ResponseWriter, r *http.Request) {
	run, ok := a.eng.Run(r.PathValue("name"))
	if !ok {
		a.problem(w, http.StatusNotFound, CodeNotFound, "run not found")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, run.Status())
}

func (a *API) handleAbort(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := a.eng.Abort(name); err != nil {
		a.engineProblem(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"aborted": name})
}

func (a *API) handlePause(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	gen, err := a.eng.Pause(name)
	if err != nil {
		a.engineProblem(w, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, PauseResponse{Strategy: name, PauseGen: gen})
}

func (a *API) handleResume(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req ResumeRequest
	if r.ContentLength != 0 {
		if err := httpx.ReadJSON(r, &req); err != nil {
			a.problem(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}
	if err := a.eng.Resume(name, req.Gen); err != nil {
		a.engineProblem(w, err)
		return
	}
	a.writeStatus(w, name)
}

func (a *API) handlePromote(w http.ResponseWriter, r *http.Request) {
	a.handleDecision(w, r, a.eng.Promote)
}

func (a *API) handleRollback(w http.ResponseWriter, r *http.Request) {
	a.handleDecision(w, r, a.eng.Rollback)
}

func (a *API) handleDecision(w http.ResponseWriter, r *http.Request,
	decide func(name, target string) error) {

	name := r.PathValue("name")
	var req DecisionRequest
	if r.ContentLength != 0 {
		if err := httpx.ReadJSON(r, &req); err != nil {
			a.problem(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			return
		}
	}
	if err := decide(name, req.Target); err != nil {
		a.engineProblem(w, err)
		return
	}
	a.writeStatus(w, name)
}

func (a *API) writeStatus(w http.ResponseWriter, name string) {
	run, ok := a.eng.Run(name)
	if !ok {
		a.problem(w, http.StatusNotFound, CodeNotFound, "run not found")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, run.Status())
}

func queryInt(r *http.Request, key string, def int) int {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return def
	}
	return v
}

func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	httpx.WriteJSON(w, http.StatusOK, a.eng.RecentEvents(queryInt(r, "n", 100)))
}

func (a *API) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := a.eng.Run(name); !ok {
		a.problem(w, http.StatusNotFound, CodeNotFound, "run not found")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, a.eng.RunEvents(name, queryInt(r, "n", 100)))
}

// handleEventStream pushes engine events as Server-Sent Events so clients
// (CLI watch, dashboard) stop polling. ?strategy= filters to one run and
// ?replay=N prefixes up to N buffered events for late joiners. A reconnect
// carrying the standard Last-Event-ID header (sent automatically by
// EventSource and by engine.Client.Watch) resumes from that sequence
// number instead: the gap is replayed from retained history, or an
// explicit events_dropped marker is sent when it exceeds retention.
func (a *API) handleEventStream(w http.ResponseWriter, r *http.Request) {
	a.eng.ServeEventStream(w, r, r.URL.Query().Get("strategy"), queryInt(r, "replay", 0))
}

// lastEventID parses the SSE Last-Event-ID reconnect header (0: none).
func lastEventID(r *http.Request) int64 {
	id, err := strconv.ParseInt(r.Header.Get("Last-Event-ID"), 10, 64)
	if err != nil || id < 0 {
		return 0
	}
	return id
}

// ServeEventStream streams engine events to w as Server-Sent Events until
// the request context ends: subscribe-before-replay with sequence-number
// dedup, so late joiners get up to replay buffered events and never miss or
// repeat one across the replay/live seam. strategy filters to one run (""
// streams everything). Shared by the API's /api/v2/events/stream endpoint
// and the dashboard's /dashboard/events alias.
//
// Every event carries its sequence number as the SSE id, and the stream is
// loss-free end to end: a reconnect with Last-Event-ID resumes from the
// durable history (which survives engine restarts), and gaps introduced by
// the bus dropping on a slow subscriber channel are backfilled from the
// replay ring before newer events are sent, or as soon as the stream drains
// its channel when no newer event follows (the tail of a burst). When part
// of a gap is beyond retention, an events_dropped marker makes the loss
// explicit instead of silent.
func (e *Engine) ServeEventStream(w http.ResponseWriter, r *http.Request, strategy string, replay int) {
	// Subscribe on the frame channel: live deliveries arrive as pooled
	// encode-once frames, so every stream shares the same marshaled bytes
	// (SendRaw) instead of re-encoding per subscriber.
	sub, cancel := e.bus.subscribeFrames(256)
	defer cancel()
	// Sequence at subscription: every event fanned to this channel is
	// newer, so any later jump past subSeq+1 in received seqs is a drop.
	subSeq := e.bus.currentSeq()

	sse, err := httpx.NewSSEWriter(w)
	if err != nil {
		httpx.WriteProblem(w, httpx.Problem{
			Status: http.StatusInternalServerError, Detail: err.Error(),
		})
		return
	}

	send := func(ev Event) bool {
		return sse.Send(string(ev.Type), strconv.FormatInt(ev.Seq, 10), ev) == nil
	}
	// sendSince replays retained events after afterSeq (filtered), with an
	// explicit drop marker when the gap reaches beyond retention. Returns
	// the new high-water mark and whether the stream is still writable.
	sendSince := func(afterSeq int64) (int64, bool) {
		history, dropped := e.eventsSince(strategy, afterSeq)
		if dropped {
			first := e.bus.currentSeq()
			if len(history) > 0 {
				first = history[0].Seq - 1
			}
			marker := Event{
				Seq: first, Strategy: strategy, Type: EventEventsDropped,
				Detail: fmt.Sprintf("events after sequence %d are beyond retention and were not replayed", afterSeq),
				Time:   e.clk.Now(),
			}
			if !send(marker) {
				return afterSeq, false
			}
			afterSeq = first
		}
		for _, ev := range history {
			if ev.Seq <= afterSeq {
				continue
			}
			if !send(ev) {
				return afterSeq, false
			}
			afterSeq = ev.Seq
		}
		return afterSeq, true
	}

	// A purely live stream (no resume, no replay) starts at the
	// subscription's sequence: gap backfill then only ever replays events
	// published after the client connected, never historical ones, and an
	// event published while the headers were flushed is delivered live.
	lastSeq := subSeq
	if id := lastEventID(r); id > 0 {
		if id > e.bus.currentSeq() {
			// The client is ahead of this engine's sequence: the engine
			// restarted without its journal and the numbering reset. Say
			// so explicitly and resume live — silently discarding every
			// event below the stale id would wedge the stream forever.
			marker := Event{
				Seq: lastSeq, Strategy: strategy, Type: EventEventsDropped,
				Detail: fmt.Sprintf("event sequence reset below %d (engine restarted without its journal); resuming live", id),
				Time:   e.clk.Now(),
			}
			if !send(marker) {
				return
			}
		} else {
			// Reconnect: replay exactly what was missed since the
			// client's last received event (Last-Event-ID wins over
			// ?replay).
			var ok bool
			if lastSeq, ok = sendSince(id); !ok {
				return
			}
		}
	} else if replay > 0 {
		var history []Event
		if strategy != "" {
			history = e.RunEvents(strategy, replay)
		} else {
			history = e.RecentEvents(replay)
		}
		for _, ev := range history {
			if !send(ev) {
				return
			}
			lastSeq = ev.Seq
		}
	}
	// lastRecv tracks the newest sequence received from the subscriber
	// channel across all strategies; a jump of more than one means the bus
	// dropped on this channel and the gap must be backfilled from history.
	// It starts at the subscription-time sequence so drops during a slow
	// history replay (before the first channel receive) are detected too.
	lastRecv := subSeq
	for {
		// A drained channel with the drop mark set means the bus dropped
		// frames that no later delivery may reveal, such as the tail of a
		// burst: backfill them from history now. Reading the per-stream
		// mark keeps the bus lock off this path.
		if len(sub.ch) == 0 && sub.dropped.Load() {
			sub.dropped.Store(false)
			var ok bool
			if lastSeq, ok = sendSince(lastSeq); !ok {
				return
			}
		}
		select {
		case f, open := <-sub.ch:
			if !open {
				return
			}
			ev := f.ev
			gap := ev.Seq > lastRecv+1
			lastRecv = ev.Seq
			if ev.Seq <= lastSeq {
				f.release()
				continue
			}
			if gap {
				// The subscriber channel dropped under pressure; recover
				// the lost events from retained history so watchers cannot
				// miss a transition.
				var ok bool
				if lastSeq, ok = sendSince(lastSeq); !ok {
					f.release()
					return
				}
				if ev.Seq <= lastSeq {
					f.release()
					continue
				}
			}
			if strategy != "" && ev.Strategy != strategy {
				f.release()
				continue
			}
			// Live fast path: the frame's encode-once bytes go straight to
			// the socket — no per-subscriber marshal, no per-event
			// allocations.
			err := sse.SendRaw(string(ev.Type), ev.Seq, f.data())
			f.release()
			if err != nil {
				return
			}
			lastSeq = ev.Seq
		case <-r.Context().Done():
			return
		}
	}
}

// Client talks to a remote engine API over /api/v2; the CLI is a thin
// wrapper over it.
type Client struct {
	// BaseURL is the engine root, e.g. "http://127.0.0.1:7000".
	BaseURL string
}

func (c *Client) runURL(name string, parts ...string) string {
	u := c.BaseURL + "/api/v2/runs/" + url.PathEscape(name)
	for _, p := range parts {
		u += "/" + p
	}
	return u
}

// Schedule submits DSL source expected to enact exactly one run. Matrix
// templates that stamp out several must use ScheduleAll.
func (c *Client) Schedule(ctx context.Context, yamlSrc string) (Status, error) {
	sts, err := c.ScheduleAll(ctx, yamlSrc)
	if err != nil {
		return Status{}, err
	}
	if len(sts) != 1 {
		return Status{}, fmt.Errorf("engine: template scheduled %d runs; use ScheduleAll", len(sts))
	}
	return sts[0], nil
}

// ScheduleAll submits DSL source for enactment and returns every
// scheduled run: one for plain strategies, N for matrix templates.
func (c *Client) ScheduleAll(ctx context.Context, yamlSrc string) ([]Status, error) {
	var raw json.RawMessage
	err := httpx.PostJSON(ctx, c.BaseURL+"/api/v2/runs", ScheduleRequest{YAML: yamlSrc}, &raw)
	if err != nil {
		return nil, err
	}
	return decodeOneOrMany[Status](raw)
}

// DryRun validates DSL source on the engine and returns the analysis
// report without enacting anything; templates expanding to several runs
// return the first run's report (use DryRunAll for all of them).
func (c *Client) DryRun(ctx context.Context, yamlSrc string) (DryRunResponse, error) {
	reports, err := c.DryRunAll(ctx, yamlSrc)
	if err != nil {
		return DryRunResponse{}, err
	}
	return reports[0], nil
}

// DryRunAll validates DSL source and returns one analysis report per run
// the source expands to.
func (c *Client) DryRunAll(ctx context.Context, yamlSrc string) ([]DryRunResponse, error) {
	var raw json.RawMessage
	err := httpx.PostJSON(ctx, c.BaseURL+"/api/v2/runs?dry-run=true",
		ScheduleRequest{YAML: yamlSrc}, &raw)
	if err != nil {
		return nil, err
	}
	return decodeOneOrMany[DryRunResponse](raw)
}

// decodeOneOrMany reads the schedule/dry-run wire format, which is a bare
// object for single runs (backwards compatible) and an array for
// templates.
func decodeOneOrMany[T any](raw json.RawMessage) ([]T, error) {
	for _, b := range raw {
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			var many []T
			if err := json.Unmarshal(raw, &many); err != nil {
				return nil, err
			}
			if len(many) == 0 {
				return nil, fmt.Errorf("engine: empty response")
			}
			return many, nil
		}
		break
	}
	var one T
	if err := json.Unmarshal(raw, &one); err != nil {
		return nil, err
	}
	return []T{one}, nil
}

// List returns all run statuses.
func (c *Client) List(ctx context.Context) ([]Status, error) {
	var out []Status
	err := httpx.GetJSON(ctx, c.BaseURL+"/api/v2/runs", &out)
	return out, err
}

// Get returns one run status.
func (c *Client) Get(ctx context.Context, name string) (Status, error) {
	var st Status
	err := httpx.GetJSON(ctx, c.runURL(name), &st)
	return st, err
}

// Abort stops a running strategy.
func (c *Client) Abort(ctx context.Context, name string) error {
	return httpx.DoJSON(ctx, http.MethodDelete, c.runURL(name), nil, nil)
}

// Pause suspends a run at its current state and returns the pause
// generation to pass to Resume.
func (c *Client) Pause(ctx context.Context, name string) (int, error) {
	var out PauseResponse
	err := httpx.PostJSON(ctx, c.runURL(name, "pause"), struct{}{}, &out)
	return out.PauseGen, err
}

// Resume continues a paused run. gen > 0 must match the generation returned
// by the pause being resumed; gen <= 0 resumes unconditionally.
func (c *Client) Resume(ctx context.Context, name string, gen int) (Status, error) {
	var st Status
	err := httpx.PostJSON(ctx, c.runURL(name, "resume"), ResumeRequest{Gen: gen}, &st)
	return st, err
}

// Promote applies a manual success gate decision on the run's current state.
func (c *Client) Promote(ctx context.Context, name, target string) (Status, error) {
	var st Status
	err := httpx.PostJSON(ctx, c.runURL(name, "promote"), DecisionRequest{Target: target}, &st)
	return st, err
}

// Rollback applies a manual failure gate decision on the run's current state.
func (c *Client) Rollback(ctx context.Context, name, target string) (Status, error) {
	var st Status
	err := httpx.PostJSON(ctx, c.runURL(name, "rollback"), DecisionRequest{Target: target}, &st)
	return st, err
}

// Events fetches recent engine events.
func (c *Client) Events(ctx context.Context, n int) ([]Event, error) {
	var out []Event
	err := httpx.GetJSON(ctx, fmt.Sprintf("%s/api/v2/events?n=%d", c.BaseURL, n), &out)
	return out, err
}

// RunEvents fetches one run's event history.
func (c *Client) RunEvents(ctx context.Context, name string, n int) ([]Event, error) {
	var out []Event
	err := httpx.GetJSON(ctx, fmt.Sprintf("%s?n=%d", c.runURL(name, "events"), n), &out)
	return out, err
}

// Watch subscribes to the engine's live SSE event stream. strategy filters
// to one run ("" streams everything); replay > 0 prefixes buffered history.
// The returned channel closes when the stream ends; the cancel function
// tears the stream down.
//
// Like a browser EventSource, Watch reconnects when the stream breaks —
// sending Last-Event-ID so the engine replays everything missed (sequence
// numbers survive engine restarts via the run journal, so a watcher rides
// through a control-plane restart without losing a transition). It gives up
// after watchMaxRetries consecutive failed connection attempts.
func (c *Client) Watch(ctx context.Context, strategy string, replay int) (<-chan Event, func(), error) {
	q := url.Values{}
	if strategy != "" {
		q.Set("strategy", strategy)
	}
	if replay > 0 {
		q.Set("replay", strconv.Itoa(replay))
	}
	u := c.BaseURL + "/api/v2/events/stream"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	ctx, cancel := context.WithCancel(ctx)
	resp, err := streamRequest(ctx, u, 0)
	if err != nil {
		cancel()
		return nil, nil, err
	}
	ch := make(chan Event, 64)
	go func() {
		defer close(ch)
		var lastID int64
		forward := func(se httpx.SSEEvent) error {
			var ev Event
			if json.Unmarshal(se.Data, &ev) != nil {
				return nil // skip non-event frames (keep-alives)
			}
			select {
			case ch <- ev:
				if ev.Seq > lastID {
					lastID = ev.Seq
				}
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		for {
			_ = httpx.ReadSSE(resp.Body, forward)
			resp.Body.Close()
			if ctx.Err() != nil {
				return
			}
			// The stream broke (engine restart, network blip): reconnect
			// with Last-Event-ID so nothing is missed in between.
			resp = nil
			for attempt := 0; attempt < watchMaxRetries && resp == nil; attempt++ {
				select {
				case <-ctx.Done():
					return
				case <-time.After(watchRetryDelay(attempt)):
				}
				resp, _ = streamRequest(ctx, u, lastID)
			}
			if resp == nil {
				return
			}
		}
	}()
	return ch, cancel, nil
}

// watchMaxRetries bounds consecutive failed reconnect attempts of Watch.
const watchMaxRetries = 10

// watchRetryDelay backs reconnects off to 5s.
func watchRetryDelay(attempt int) time.Duration {
	d := 250 * time.Millisecond << attempt
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}

// streamRequest opens one SSE connection, optionally resuming after a
// sequence number via the standard Last-Event-ID header.
func streamRequest(ctx context.Context, u string, lastID int64) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if lastID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(lastID, 10))
	}
	resp, err := httpx.StreamClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		httpx.DrainClose(resp.Body)
		return nil, fmt.Errorf("watch %s: status %d", u, resp.StatusCode)
	}
	return resp, nil
}

// Healthy checks engine liveness.
func (c *Client) Healthy(ctx context.Context) error {
	var out map[string]string
	return httpx.GetJSON(ctx, c.BaseURL+"/-/healthy", &out)
}
