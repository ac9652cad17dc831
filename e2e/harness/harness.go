// Package harness supervises real bifrost-engine replica processes for
// multi-replica end-to-end tests: it builds the daemon binary once, spawns
// N replicas sharing one journal root (partitioned per run) and one lease
// directory, and exposes crash primitives — kill -9, restart — plus
// partition- and lease-level visibility so tests can assert on what is
// actually on disk, not just on what the API claims.
//
// The harness runs real processes on purpose: lease takeover, fencing, and
// SSE reconnection across a dead owner only mean something when the old
// owner is a separate OS process that got SIGKILL mid-write, not a
// goroutine that was politely asked to stop.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/lease"
)

// internalHeader mirrors the engine's replica-to-replica marker: requests
// carrying it are served from local state only (no routing, no fan-out),
// which is exactly what per-replica assertions need.
const internalHeader = "X-Bifrost-Internal"

// Options shapes a fleet.
type Options struct {
	// Replicas is the fleet size (default 3).
	Replicas int
	// LeaseTTL is the run-lease lifetime (default 2s — takeover tests
	// want short).
	LeaseTTL time.Duration
	// Heartbeat is the journal liveness heartbeat cadence (default
	// 250ms, so crash-time estimates are sharp).
	Heartbeat time.Duration
	// ExtraArgs are appended to every replica's command line.
	ExtraArgs []string
}

// Fleet is a running set of engine replicas over shared durable state.
type Fleet struct {
	t          *testing.T
	bin        string
	JournalDir string

	mu       sync.Mutex
	replicas map[string]*Replica
	ids      []string
	peersArg string
	opts     Options
}

// Replica is one supervised engine process.
type Replica struct {
	ID     string
	URL    string
	listen string

	fleet  *Fleet
	mu     sync.Mutex
	cmd    *exec.Cmd
	exited chan struct{}
	log    *syncBuffer
	dead   bool
}

// syncBuffer guards the replica log: the exec package writes to it from
// its own copying goroutine while tests read it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// BuildEngine compiles cmd/bifrost-engine once per test binary run and
// returns the path.
func BuildEngine(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bifrost-e2e-bin")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "bifrost-engine")
		// The daemon is always built with the race detector: the whole
		// point of these tests is concurrent takeover, and a data race
		// inside a replica should fail the run loudly (the runtime
		// aborts the process, WaitHealthy or adoption then times out).
		cmd := exec.Command("go", "build", "-race", "-o", buildBin, "bifrost/cmd/bifrost-engine")
		out, err := cmd.CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build bifrost-engine: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("%v", buildErr)
	}
	return buildBin
}

// StartFleet builds the daemon, reserves a port per replica, and starts
// them all against one shared journal root. Replicas are named r0..r(n-1).
// Cleanup kills whatever is still running.
func StartFleet(t *testing.T, opts Options) *Fleet {
	t.Helper()
	if opts.Replicas == 0 {
		opts.Replicas = 3
	}
	if opts.LeaseTTL == 0 {
		opts.LeaseTTL = 2 * time.Second
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 250 * time.Millisecond
	}
	f := &Fleet{
		t:          t,
		bin:        BuildEngine(t),
		JournalDir: t.TempDir(),
		replicas:   make(map[string]*Replica, opts.Replicas),
		opts:       opts,
	}
	peers := ""
	for i := 0; i < opts.Replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		addr := reservePort(t)
		r := &Replica{
			ID: id, URL: "http://" + addr, listen: addr,
			fleet: f, log: &syncBuffer{},
		}
		f.replicas[id] = r
		f.ids = append(f.ids, id)
		if peers != "" {
			peers += ","
		}
		peers += id + "=" + r.URL
	}
	f.peersArg = peers
	for _, id := range f.ids {
		f.replicas[id].start()
	}
	t.Cleanup(f.StopAll)
	for _, id := range f.ids {
		f.replicas[id].WaitHealthy(10 * time.Second)
	}
	return f
}

// reservePort grabs a free localhost port and releases it for the replica
// to bind. The tiny reuse window is acceptable in tests.
func reservePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// Replica returns the replica with the given id.
func (f *Fleet) Replica(id string) *Replica {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.replicas[id]
	if !ok {
		f.t.Fatalf("no replica %q", id)
	}
	return r
}

// IDs returns the replica ids in start order.
func (f *Fleet) IDs() []string { return append([]string(nil), f.ids...) }

// Client returns an API client pointed at one replica.
func (f *Fleet) Client(id string) *engine.Client {
	return &engine.Client{BaseURL: f.Replica(id).URL}
}

// Leases opens a read view of the fleet's shared lease directory.
func (f *Fleet) Leases() *lease.Store {
	s, err := lease.Open(filepath.Join(f.JournalDir, "leases"))
	if err != nil {
		f.t.Fatalf("open lease store: %v", err)
	}
	return s
}

// Partitions lists the per-run partition directories in the shared
// journal root. Names are the raw (escaped) directory names; runs named
// with plain characters appear verbatim.
func (f *Fleet) Partitions() []string {
	entries, err := os.ReadDir(filepath.Join(f.JournalDir, "runs"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		f.t.Fatalf("read partitions: %v", err)
	}
	out := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

// StopAll SIGKILLs every replica still running (idempotent; used as the
// test cleanup).
func (f *Fleet) StopAll() {
	f.mu.Lock()
	ids := append([]string(nil), f.ids...)
	f.mu.Unlock()
	for _, id := range ids {
		f.replicas[id].kill(false)
	}
}

// start launches the replica process (fresh incarnation).
func (r *Replica) start() {
	r.fleet.t.Helper()
	args := []string{
		"-listen", r.listen,
		"-journal-dir", r.fleet.JournalDir,
		"-engine-id", r.ID,
		"-peers", r.fleet.peersArg,
		"-lease-ttl", r.fleet.opts.LeaseTTL.String(),
		"-journal-heartbeat", r.fleet.opts.Heartbeat.String(),
		// Write-through journaling: every event waits for its fsynced
		// record before it is visible, so a kill -9 loses nothing that a
		// watcher already saw.
		"-journal-flush-interval", "-1ns",
		"-sysmon-interval", "0",
	}
	args = append(args, r.fleet.opts.ExtraArgs...)
	cmd := exec.Command(r.fleet.bin, args...)
	cmd.Stdout = r.log
	cmd.Stderr = r.log
	if err := cmd.Start(); err != nil {
		r.fleet.t.Fatalf("start replica %s: %v", r.ID, err)
	}
	exited := make(chan struct{})
	r.mu.Lock()
	r.cmd = cmd
	r.exited = exited
	r.dead = false
	r.mu.Unlock()
	go func() { // reap whenever it exits, however it exits
		_ = cmd.Wait()
		close(exited)
	}()
}

// Kill9 SIGKILLs the replica — the crash primitive. No shutdown hooks
// run: leases stay on disk unreleased, journal partitions keep whatever
// was durably written, and survivors must take over via expiry.
func (r *Replica) Kill9() {
	r.fleet.t.Helper()
	r.kill(true)
}

func (r *Replica) kill(fatalIfGone bool) {
	r.mu.Lock()
	cmd, exited := r.cmd, r.exited
	r.dead = true
	r.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		if fatalIfGone {
			r.fleet.t.Fatalf("replica %s is not running", r.ID)
		}
		return
	}
	_ = cmd.Process.Signal(syscall.SIGKILL)
	// Wait for the OS to reap it so the port frees for a restart.
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
	}
}

// Restart starts a fresh incarnation on the same id, port, and shared
// state (the replica must be dead).
func (r *Replica) Restart() {
	r.fleet.t.Helper()
	r.mu.Lock()
	exited := r.exited
	running := !r.dead && r.cmd != nil
	r.mu.Unlock()
	if running && exited != nil {
		select {
		case <-exited:
		default:
			r.fleet.t.Fatalf("replica %s still running; Kill9 first", r.ID)
		}
	}
	r.start()
	r.WaitHealthy(10 * time.Second)
}

// WaitHealthy polls /-/healthy until 200 or the timeout.
func (r *Replica) WaitHealthy(timeout time.Duration) {
	r.fleet.t.Helper()
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(r.URL + "/-/healthy")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	r.fleet.t.Fatalf("replica %s not healthy after %s; log:\n%s",
		r.ID, timeout, r.Log())
}

// LocalRuns lists the runs this replica itself hosts (internal-marked
// request: no fan-out, no redirects) — the per-replica ownership view.
func (r *Replica) LocalRuns() []engine.Status {
	r.fleet.t.Helper()
	out, err := r.TryLocalRuns()
	if err != nil {
		r.fleet.t.Fatalf("local runs of %s: %v", r.ID, err)
	}
	return out
}

// TryLocalRuns is LocalRuns without the fatal: callers probing replicas
// that may be dead get the error instead.
func (r *Replica) TryLocalRuns() ([]engine.Status, error) {
	req, err := http.NewRequest(http.MethodGet, r.URL+"/api/v2/runs", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(internalHeader, "harness")
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer httpx.DrainClose(resp.Body)
	var out []engine.Status
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Log returns the replica's combined output so far (all incarnations).
func (r *Replica) Log() string { return r.log.String() }

// Eventually polls cond until it holds or the deadline passes.
func Eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("timed out after %s waiting for %s", timeout, what)
}

// WaitContext is Eventually's context-style sibling for call sites that
// already hold a deadline.
func WaitContext(ctx context.Context, cond func() bool) error {
	for {
		if cond() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
}
