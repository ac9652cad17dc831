package engine

// Cluster is the membership layer of a sharded HA deployment: N engine
// replicas share one journal root (per-run partitions) and one lease
// directory, and each run is owned by exactly one replica at a time —
// whoever holds its lease. Ownership is arbitrated by the lease store's
// fencing tokens, not by liveness guesses: every partition append carries
// the owner's token, so a deposed replica's writes are rejected no matter
// how wrong its view of the world is.
//
// The pieces:
//
//   - Gate: the engine's enact gate. A replica acquires the run's lease
//     before registering a new enactment, so scheduling *is* claiming.
//   - Token: the engine's fence hook, mapping a run to the held lease's
//     fencing token for partition appends.
//   - renew loop: held leases are renewed at TTL/3; a lost lease evicts
//     the run locally (the new owner has already replayed it).
//   - sweep loop: partitions whose lease is missing or expired are
//     adopted — lease acquired, partition replayed via RecoverRun, run
//     resumed in-phase — by the first *healthy* replica in the run's
//     rendezvous-hash preference order.
//   - Handler: wraps the REST API. Run-scoped requests are answered
//     locally when this replica owns the run and 307-redirected to the
//     owner otherwise; schedules are split across preferred owners; list
//     requests fan out to all healthy peers and merge.
//
// Replicas never gossip: the shared filesystem (journal partitions +
// lease records) is the only coordination medium, which is exactly the
// deploy=crash invariant the rest of the engine is built on.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"bifrost/internal/clock"
	"bifrost/internal/httpx"
	"bifrost/internal/lease"
	"bifrost/internal/metrics"
)

// internalHeader marks replica-to-replica requests: the receiving handler
// serves them locally instead of re-routing (no forwarding loops, and list
// fan-out stays one hop deep).
const internalHeader = "X-Bifrost-Internal"

// ErrNotOwner is returned by the enact gate when the run's lease is held,
// live, by another replica.
var ErrNotOwner = errors.New("cluster: run is owned by another replica")

// ClusterOptions configures one replica's membership.
type ClusterOptions struct {
	// Self is this replica's id; it must be a key of Peers.
	Self string
	// Peers maps replica id to base URL (scheme://host:port), self
	// included. The key set must agree across replicas — it is the
	// rendezvous hash universe.
	Peers map[string]string
	// Leases is the shared lease store (same directory on every replica).
	Leases *lease.Store
	// TTL is the lease lifetime; renewals happen every TTL/3 and a dead
	// replica's runs become adoptable one TTL after its last renewal.
	TTL time.Duration
	// SweepInterval paces the adoption scan (default TTL/2).
	SweepInterval time.Duration
	// Compile recompiles adopted runs from their journaled source.
	Compile CompileFunc
	// Expand splits a schedule request into concrete runs so the handler
	// can shard a matrix template across owners. Nil: requests are
	// treated as single-run and scheduled locally.
	Expand ExpandFunc
	// Health overrides peer liveness probing (tests). Nil: GET
	// <peer>/-/healthy with a short timeout.
	Health func(id string) bool
	// Clock defaults to the wall clock.
	Clock clock.Clock
}

// Cluster is one replica's view of the shard. Create with NewCluster, wire
// the engine with WithFence(c.Token) and WithEnactGate(c.Gate), then call
// Start. The zero value is not usable.
type Cluster struct {
	self    string
	peers   map[string]string
	leases  *lease.Store
	ttl     time.Duration
	sweep   time.Duration
	compile CompileFunc
	expand  ExpandFunc
	health  func(id string) bool
	clk     clock.Clock
	client  *http.Client

	mu     sync.Mutex
	tokens map[string]int64 // run -> held fencing token
	eng    *Engine
	quit   chan struct{}
	done   sync.WaitGroup

	mAdopted   *metrics.Counter
	mLeaseLost *metrics.Counter
	mRedirects *metrics.Counter
}

// NewCluster validates the membership config. The returned Cluster's Token
// and Gate hooks are usable immediately (so they can be passed as engine
// options); the loops start with Start.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	if opts.Self == "" {
		return nil, errors.New("cluster: Self is required")
	}
	if _, ok := opts.Peers[opts.Self]; !ok {
		return nil, fmt.Errorf("cluster: Self %q is not in Peers", opts.Self)
	}
	if opts.Leases == nil {
		return nil, errors.New("cluster: Leases is required")
	}
	if opts.TTL <= 0 {
		return nil, errors.New("cluster: TTL must be positive")
	}
	c := &Cluster{
		self:    opts.Self,
		peers:   opts.Peers,
		leases:  opts.Leases,
		ttl:     opts.TTL,
		sweep:   opts.SweepInterval,
		compile: opts.Compile,
		expand:  opts.Expand,
		health:  opts.Health,
		clk:     opts.Clock,
		client:  &http.Client{Timeout: 10 * time.Second},
		tokens:  make(map[string]int64),
		quit:    make(chan struct{}),
	}
	if c.sweep <= 0 {
		c.sweep = c.ttl / 2
	}
	if c.clk == nil {
		c.clk = clock.Real{}
	}
	if c.health == nil {
		c.health = c.probe
	}
	return c, nil
}

// Token is the engine fence hook: the fencing token of the lease this
// replica holds for run (0 when it holds none — appends then fail fenced
// rather than silently writing into a partition someone else owns).
func (c *Cluster) Token(run string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tokens[run]
}

// Gate is the engine enact gate: scheduling a run claims its lease. The
// partition is closed after a successful claim so it reopens under the new
// token — a re-enactment of a finished run gets a fresh ownership epoch,
// not the cached journal of the previous one.
func (c *Cluster) Gate(run string) error {
	rec, err := c.leases.Acquire(run, c.self, c.ttl)
	if err != nil {
		if errors.Is(err, lease.ErrHeld) {
			return fmt.Errorf("%w: %s", ErrNotOwner, run)
		}
		return err
	}
	c.mu.Lock()
	c.tokens[run] = rec.Token
	eng := c.eng
	c.mu.Unlock()
	if eng != nil && eng.journals != nil {
		_ = eng.journals.CloseRun(run)
	}
	return nil
}

// Start attaches the engine and launches the renew and sweep loops plus
// the terminal-event watcher. Call once, before serving traffic.
func (c *Cluster) Start(eng *Engine) {
	c.mu.Lock()
	c.eng = eng
	c.mu.Unlock()
	if r := eng.Registry(); r != nil {
		c.mAdopted = r.Counter("engine_cluster_runs_adopted_total", nil)
		c.mLeaseLost = r.Counter("engine_cluster_leases_lost_total", nil)
		c.mRedirects = r.Counter("engine_cluster_redirects_total", nil)
	}
	events, cancel := eng.Subscribe(64)
	c.done.Add(3)
	go c.renewLoop()
	go c.sweepLoop()
	go func() {
		defer c.done.Done()
		defer cancel()
		c.watchEvents(events)
	}()
}

// Close stops the loops. Held leases are NOT released: a stopping replica
// behaves exactly like a crashed one (deploy=crash), and survivors adopt
// its runs after the TTL.
func (c *Cluster) Close() {
	c.mu.Lock()
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	c.mu.Unlock()
	c.done.Wait()
}

// renewLoop re-asserts every held lease at TTL/3. Losing one (another
// replica fenced us) evicts the run locally without a terminal record —
// the new owner's replay is the truth now.
func (c *Cluster) renewLoop() {
	defer c.done.Done()
	t := c.clk.NewTicker(c.ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C():
		}
		c.renewOnce()
	}
}

// renewOnce re-asserts every held lease once.
func (c *Cluster) renewOnce() {
	c.mu.Lock()
	held := make(map[string]int64, len(c.tokens))
	for run, tok := range c.tokens {
		held[run] = tok
	}
	eng := c.eng
	c.mu.Unlock()
	for run, tok := range held {
		_, err := c.leases.Renew(run, c.self, tok, c.ttl)
		if err == nil {
			continue
		}
		if errors.Is(err, lease.ErrLost) {
			c.dropToken(run, tok)
			if c.mLeaseLost != nil {
				c.mLeaseLost.Inc()
			}
			if eng != nil {
				_ = eng.Evict(run)
			}
		}
		// Transient store errors: keep the token, retry next tick.
		// The lease may expire meanwhile; fencing keeps that safe.
	}
}

// sweepLoop periodically adopts orphaned partitions: runs present in the
// shared journal root whose lease is missing or expired. The first sweep
// runs immediately, so a restarted replica re-claims its own runs without
// waiting a full interval.
func (c *Cluster) sweepLoop() {
	defer c.done.Done()
	t := c.clk.NewTicker(c.sweep)
	defer t.Stop()
	for {
		c.sweepOnce()
		select {
		case <-c.quit:
			return
		case <-t.C():
		}
	}
}

// sweepOnce scans for adoptable runs and adopts the ones this replica is
// the first healthy preferred owner of.
func (c *Cluster) sweepOnce() {
	c.mu.Lock()
	eng := c.eng
	c.mu.Unlock()
	if eng == nil || eng.journals == nil {
		return
	}
	runs, err := eng.journals.List()
	if err != nil {
		return
	}
	healthy := c.healthCache()
	now := c.clk.Now()
	for _, run := range runs {
		select {
		case <-c.quit:
			return
		default:
		}
		if _, live := eng.Run(run); live {
			continue
		}
		rec, found, err := c.leases.Get(run)
		if err != nil {
			continue
		}
		if found && rec.Holder != c.self && !rec.Expired(now) {
			continue // someone else owns it, and proves it by renewing
		}
		if !c.firstHealthyOwner(run, healthy) {
			continue
		}
		c.adopt(run)
	}
}

// adopt claims run's lease and replays its partition into a live run.
func (c *Cluster) adopt(run string) {
	rec, err := c.leases.Acquire(run, c.self, c.ttl)
	if err != nil {
		return // lost the race: another replica claimed it first
	}
	c.mu.Lock()
	c.tokens[run] = rec.Token
	eng := c.eng
	c.mu.Unlock()
	// The partition may be cached from a previous ownership epoch of this
	// same process; reopen it under the fresh token.
	_ = eng.journals.CloseRun(run)
	rr, err := eng.RecoverRun(run, c.compile, rec.Token)
	if err != nil {
		if errors.Is(err, ErrAlreadyRunning) {
			return // raced with a local enactment that claimed the lease
		}
		// Replay failed: release so a healthier replica can try.
		c.dropToken(run, rec.Token)
		_ = c.leases.Release(run, c.self, rec.Token)
		return
	}
	if c.mAdopted != nil {
		c.mAdopted.Inc()
	}
	_ = rr // finished runs adopt as history; resumed ones are live again
}

// watchEvents releases a removed run's lease: Remove is the explicit "this
// run's history is gone" statement, so ownership goes with it.
func (c *Cluster) watchEvents(events <-chan Event) {
	for {
		select {
		case <-c.quit:
			return
		case ev, ok := <-events:
			if !ok {
				return
			}
			if ev.Type != EventRemoved {
				continue
			}
			c.mu.Lock()
			tok, held := c.tokens[ev.Strategy]
			delete(c.tokens, ev.Strategy)
			c.mu.Unlock()
			if held {
				_ = c.leases.Release(ev.Strategy, c.self, tok)
			}
		}
	}
}

// dropToken forgets a held token if it is still the one recorded.
func (c *Cluster) dropToken(run string, tok int64) {
	c.mu.Lock()
	if c.tokens[run] == tok {
		delete(c.tokens, run)
	}
	c.mu.Unlock()
}

// preferred returns the replica ids in rendezvous-hash order for run: each
// replica scores hash(id, run) and the ordering is stable across the fleet
// (every replica computes the same list), so ownership decisions need no
// coordination beyond the lease itself.
func (c *Cluster) preferred(run string) []string {
	type scored struct {
		id string
		h  uint64
	}
	list := make([]scored, 0, len(c.peers))
	for id := range c.peers {
		h := fnv.New64a()
		io.WriteString(h, id)
		h.Write([]byte{0})
		io.WriteString(h, run)
		list = append(list, scored{id, h.Sum64()})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].h != list[j].h {
			return list[i].h > list[j].h
		}
		return list[i].id < list[j].id
	})
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.id
	}
	return out
}

// firstHealthyOwner reports whether self is the first healthy replica in
// run's preference order.
func (c *Cluster) firstHealthyOwner(run string, healthy map[string]bool) bool {
	for _, id := range c.preferred(run) {
		if id == c.self {
			return true
		}
		if healthy[id] {
			return false
		}
	}
	return false
}

// pickOwner returns the first healthy replica in run's preference order
// (self when every peer ahead of it is down; self as last resort).
func (c *Cluster) pickOwner(run string, healthy map[string]bool) string {
	for _, id := range c.preferred(run) {
		if id == c.self || healthy[id] {
			return id
		}
	}
	return c.self
}

// healthCache probes each peer once and memoizes the verdict for the
// duration of one scan. Self is always healthy.
func (c *Cluster) healthCache() map[string]bool {
	out := make(map[string]bool, len(c.peers))
	for id := range c.peers {
		if id == c.self {
			out[id] = true
		} else {
			out[id] = c.health(id)
		}
	}
	return out
}

// probe is the default peer health check.
func (c *Cluster) probe(id string) bool {
	base, ok := c.peers[id]
	if !ok {
		return false
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/-/healthy", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// ownerOf resolves which replica should answer a request about run name:
// self when this replica holds the run (token or live/finished run in the
// engine), else the lease holder. An expired lease still routes to its
// last holder — for a finished run nobody renews for, the holder keeps
// the history until Remove. Empty means "serve locally" (unknown run:
// the local API produces the 404).
func (c *Cluster) ownerOf(name string) string {
	c.mu.Lock()
	_, held := c.tokens[name]
	eng := c.eng
	c.mu.Unlock()
	if held {
		return c.self
	}
	if eng != nil {
		if _, ok := eng.Run(name); ok {
			return c.self
		}
	}
	rec, found, err := c.leases.Get(name)
	if err != nil || !found {
		return ""
	}
	return rec.Holder
}

// Handler wraps the engine API with ownership routing. next serves
// everything this layer does not intercept (and everything marked
// internal).
func (c *Cluster) Handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(internalHeader) != "" {
			next.ServeHTTP(w, r)
			return
		}
		if name, ok := runScopedPath(r.URL.Path); ok {
			c.route(w, r, next, name)
			return
		}
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/api/v2/runs":
			c.handleSchedule(w, r, next)
		case r.Method == http.MethodGet && r.URL.Path == "/api/v2/runs":
			c.handleList(w, r, next)
		case r.Method == http.MethodGet && r.URL.Path == "/api/v2/events/stream" &&
			r.URL.Query().Get("strategy") != "":
			c.route(w, r, next, r.URL.Query().Get("strategy"))
		default:
			next.ServeHTTP(w, r)
		}
	})
}

// runScopedPath extracts the run name from a run-scoped API path.
func runScopedPath(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/api/v2/runs/")
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// route serves the request locally when this replica owns name, else
// 307-redirects to the owner. 307 preserves method, body, and headers
// (including SSE Last-Event-ID), so a watcher reconnecting after a
// takeover lands on the new owner and resumes loss-free.
func (c *Cluster) route(w http.ResponseWriter, r *http.Request, next http.Handler, name string) {
	owner := c.ownerOf(name)
	if owner == "" || owner == c.self {
		next.ServeHTTP(w, r)
		return
	}
	base, ok := c.peers[owner]
	if !ok {
		// Lease held by a replica outside our peer set (config drift):
		// answer locally rather than dead-ending the client.
		next.ServeHTTP(w, r)
		return
	}
	if c.mRedirects != nil {
		c.mRedirects.Inc()
	}
	http.Redirect(w, r, base+r.URL.RequestURI(), http.StatusTemporaryRedirect)
}

// handleSchedule shards a schedule request across owners: the template is
// expanded here, each concrete run is assigned its first healthy preferred
// replica, local runs are enacted directly, and remote ones are forwarded
// (one single-run schedule each, marked internal). Dry runs and engines
// without an expander fall through to the local API.
func (c *Cluster) handleSchedule(w http.ResponseWriter, r *http.Request, next http.Handler) {
	if c.expand == nil || isDryRun(r) {
		next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 4<<20))
	if err != nil {
		httpx.WriteProblem(w, httpx.Problem{
			Status: http.StatusBadRequest, Code: CodeBadRequest, Detail: err.Error()})
		return
	}
	var req ScheduleRequest
	if err := httpx.ReadJSONBody(bytes.NewReader(body), &req); err != nil {
		httpx.WriteProblem(w, httpx.Problem{
			Status: http.StatusBadRequest, Code: CodeBadRequest, Detail: err.Error()})
		return
	}
	exps, err := c.expand(req.YAML)
	if err != nil || len(exps) == 0 {
		// Let the local API produce its usual compile_failed problem.
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		return
	}
	healthy := c.healthCache()
	placements := make([]placedRun, len(exps))
	allLocal := true
	for i, ex := range exps {
		owner := c.pickOwner(ex.Strategy.Name, healthy)
		placements[i] = placedRun{ex, owner}
		if owner != c.self {
			allLocal = false
		}
	}
	if allLocal {
		r.Body = io.NopCloser(bytes.NewReader(body))
		next.ServeHTTP(w, r)
		return
	}

	c.mu.Lock()
	eng := c.eng
	c.mu.Unlock()
	statuses := make([]Status, 0, len(placements))
	scheduled := make([]placedRun, 0, len(placements))
	fail := func(failed string, status int, code, detail string) {
		// Scheduling a template stays atomic across the fleet:
		// best-effort unwind of the siblings already placed.
		for _, p := range scheduled {
			c.unschedule(eng, p)
		}
		if len(scheduled) > 0 {
			detail = fmt.Sprintf("run %q: %s (%d already-scheduled sibling run(s) aborted)",
				failed, detail, len(scheduled))
		}
		httpx.WriteProblem(w, httpx.Problem{Status: status, Code: code, Detail: detail})
	}
	for _, p := range placements {
		if p.owner == c.self {
			run, err := eng.EnactSource(p.exp.Strategy, p.exp.Source)
			if err != nil {
				code, status := CodeAlreadyRunning, http.StatusConflict
				if !errors.Is(err, ErrAlreadyRunning) {
					code, status = CodeBadRequest, http.StatusBadGateway
				}
				fail(p.exp.Strategy.Name, status, code, err.Error())
				return
			}
			statuses = append(statuses, run.Status())
		} else {
			st, err := c.forwardSchedule(r.Context(), p.owner, p.exp.Source)
			if err != nil {
				fail(p.exp.Strategy.Name, http.StatusBadGateway, CodeBadRequest, err.Error())
				return
			}
			statuses = append(statuses, st)
		}
		scheduled = append(scheduled, p)
	}
	if len(statuses) == 1 {
		httpx.WriteJSON(w, http.StatusAccepted, statuses[0])
		return
	}
	httpx.WriteJSON(w, http.StatusAccepted, statuses)
}

// forwardSchedule posts one concrete run's source to its owner replica.
func (c *Cluster) forwardSchedule(ctx context.Context, owner, source string) (Status, error) {
	var st Status
	base, ok := c.peers[owner]
	if !ok {
		return st, fmt.Errorf("unknown replica %q", owner)
	}
	payload, err := json.Marshal(ScheduleRequest{YAML: source})
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/api/v2/runs", bytes.NewReader(payload))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(internalHeader, c.self)
	resp, err := c.client.Do(req)
	if err != nil {
		return st, fmt.Errorf("replica %s: %w", owner, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("replica %s: %s: %s", owner, resp.Status, strings.TrimSpace(string(raw)))
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, fmt.Errorf("replica %s: %w", owner, err)
	}
	return st, nil
}

// unschedule undoes one placement after a failed sibling: local runs are
// aborted and removed, remote ones get a DELETE.
func (c *Cluster) unschedule(eng *Engine, p placedRun) {
	name := p.exp.Strategy.Name
	if p.owner == c.self {
		if run, ok := eng.Run(name); ok {
			run.Abort()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = run.Wait(ctx)
			cancel()
		}
		_ = eng.Remove(name)
		return
	}
	base, ok := c.peers[p.owner]
	if !ok {
		return
	}
	req, err := http.NewRequest(http.MethodDelete, base+"/api/v2/runs/"+name, nil)
	if err != nil {
		return
	}
	req.Header.Set(internalHeader, c.self)
	if resp, err := c.client.Do(req); err == nil {
		resp.Body.Close()
	}
}

// placedRun is one expanded run assigned to its owning replica.
type placedRun struct {
	exp   ExpandedStrategy
	owner string
}

// handleList merges run statuses across the fleet: the local engine's runs
// plus an internal-marked fan-out to every healthy peer. Each run lives on
// exactly one replica, but a takeover in flight can surface it twice — the
// copy from the current lease holder wins.
func (c *Cluster) handleList(w http.ResponseWriter, r *http.Request, next http.Handler) {
	c.mu.Lock()
	eng := c.eng
	c.mu.Unlock()
	byName := make(map[string]Status)
	order := []string{}
	add := func(st Status, authoritative bool) {
		if _, seen := byName[st.Strategy]; !seen {
			order = append(order, st.Strategy)
			byName[st.Strategy] = st
			return
		}
		if authoritative {
			byName[st.Strategy] = st
		}
	}
	holders := make(map[string]string)
	if recs, err := c.leases.List(); err == nil {
		now := c.clk.Now()
		for _, rec := range recs {
			if !rec.Expired(now) {
				holders[rec.Run] = rec.Holder
			}
		}
	}
	if eng != nil {
		for _, run := range eng.Runs() {
			st := run.Status()
			add(st, holders[st.Strategy] == c.self || holders[st.Strategy] == "")
		}
	}
	healthy := c.healthCache()
	for id, base := range c.peers {
		if id == c.self || !healthy[id] {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet,
			base+"/api/v2/runs", nil)
		if err != nil {
			continue
		}
		req.Header.Set(internalHeader, c.self)
		resp, err := c.client.Do(req)
		if err != nil {
			continue
		}
		var sts []Status
		err = json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&sts)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, st := range sts {
			add(st, holders[st.Strategy] == id)
		}
	}
	sort.Strings(order)
	out := make([]Status, 0, len(order))
	for _, name := range order {
		out = append(out, byName[name])
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}
