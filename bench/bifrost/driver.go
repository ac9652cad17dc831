package bifrost

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bifrost/internal/engine"
	"bifrost/internal/httpx"
	"bifrost/internal/journal"
	"bifrost/internal/metrics"
	"bifrost/internal/proxy"
)

// openLoop dispatches len(offsets) operations on an open-loop schedule:
// operation i is due at start + offsets[i], however long earlier operations
// take. fire receives the intended start, from which the operation must be
// timed so a stall counts against every operation it delays (no coordinated
// omission). The returned slice holds how late each dispatch ran.
//
// fire runs on the dispatching goroutine: request workloads start the
// request on its own goroutine, while the event publisher publishes inline,
// so a slow publish shows up as lateness and lag.
func openLoop(ctx context.Context, start time.Time, offsets []time.Duration, fire func(i int, intended time.Time)) []time.Duration {
	late := make([]time.Duration, 0, len(offsets))
	for i := 0; i < len(offsets) && ctx.Err() == nil; i++ {
		intended := start.Add(offsets[i])
		if d := time.Until(intended); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(intended))
		fire(i, intended)
	}
	return late
}

// evenly is the schedule of n operations spaced period apart.
func evenly(n int, period time.Duration) []time.Duration {
	offsets := make([]time.Duration, n)
	for i := range offsets {
		offsets[i] = time.Duration(i) * period
	}
	return offsets
}

// jittered is the schedule of n operations at the same rate as evenly, each
// at a random moment of its own period-long slot.
func jittered(rng *rand.Rand, n int, period time.Duration) []time.Duration {
	offsets := evenly(n, period)
	for i := range offsets {
		offsets[i] += time.Duration(rng.Int63n(int64(period)))
	}
	return offsets
}

// newClient returns the load driver's HTTP client: every virtual user shares
// one transport capped at nproc connections, so the load comes from as
// many client connections as the machine has cores.
func newClient() *http.Client {
	conns := runtime.NumCPU()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// user is one virtual user. Its cookie jar holds the bifrost-id cookie the
// proxy assigns; sticky routing keys on it.
type user struct {
	token string

	mu     sync.Mutex
	cookie string
}

// send attaches the user's credentials, cookie, and trace header to req,
// performs it, drains the body, and keeps any cookie the proxy assigned.
// It returns the response status (0 on a transport error), the version
// that served it, and the cookie the request carried.
func (u *user) send(c *http.Client, req *http.Request, traceHeader string) (status int, version, sentCookie string) {
	if u.token != "" {
		req.Header.Set("Authorization", "Bearer "+u.token)
	}
	u.mu.Lock()
	sentCookie = u.cookie
	u.mu.Unlock()
	if sentCookie != "" {
		req.AddCookie(&http.Cookie{Name: proxy.CookieName, Value: sentCookie})
	}
	if traceHeader != "" {
		req.Header.Set(TraceHeader, traceHeader)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", sentCookie
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	for _, ck := range resp.Cookies() {
		if ck.Name == proxy.CookieName {
			u.mu.Lock()
			u.cookie = ck.Value
			u.mu.Unlock()
		}
	}
	return resp.StatusCode, resp.Header.Get("X-Bifrost-Version"), sentCookie
}

// login signs n seeded shop users in through baseURL's /auth/login.
func login(ctx context.Context, baseURL string, n int) ([]*user, error) {
	users := make([]*user, n)
	for i := range users {
		var out map[string]string
		err := httpx.PostJSON(ctx, baseURL+"/auth/login", map[string]string{
			"email": fmt.Sprintf("user-%d@example.com", i), "password": "secret",
		}, &out)
		if err != nil {
			return nil, fmt.Errorf("login user %d: %w", i, err)
		}
		users[i] = &user{token: out["token"]}
	}
	return users, nil
}

// servers owns the loopback HTTP servers of one deployment.
type servers struct {
	list []*httpx.Server
}

// serve starts h on a fresh 127.0.0.1 port.
func (s *servers) serve(h http.Handler) (*httpx.Server, error) {
	srv, err := httpx.NewServer("127.0.0.1:0", h)
	if err != nil {
		return nil, err
	}
	srv.Start()
	s.list = append(s.list, srv)
	return srv, nil
}

// close shuts every server down. It gives open requests a moment only:
// net/http counts a connection a client opened but never used as active for
// five seconds, so a patient shutdown would often wait that long for
// nothing.
func (s *servers) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	for _, srv := range s.list {
		_ = srv.Shutdown(ctx)
	}
	s.list = nil
}

// newJournaledEngine starts an engine on a fresh journal directory with the
// HTTP fleet configurator and its own registry.
func newJournaledEngine() (*engine.Engine, *metrics.Registry, string, error) {
	dir, err := os.MkdirTemp("", "bifrost-bench-journal-*")
	if err != nil {
		return nil, nil, "", err
	}
	eng, reg, err := openEngine(dir)
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, nil, "", err
	}
	return eng, reg, dir, nil
}

// openEngine opens (or reopens) the journal in dir under a new engine.
func openEngine(dir string) (*engine.Engine, *metrics.Registry, error) {
	js, err := engine.OpenJournal(dir, journal.Options{})
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.NewRegistry()
	eng := engine.New(
		engine.WithConfigurator(engine.NewFleetConfigurator()),
		engine.WithJournalSet(js),
		engine.WithRegistry(reg),
	)
	return eng, reg, nil
}

// replayCount counts the records a recovery of the journal in dir reads:
// each partition's records behind its snapshot, as Journal.Replay streams
// them to the engine. Opening a partition starts an empty segment in it,
// so the recovery that follows opens one more, empty, file per run.
func replayCount(dir string) (float64, error) {
	js, err := engine.OpenJournal(dir, journal.Options{})
	if err != nil {
		return 0, err
	}
	defer js.Close()
	names, err := js.List()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, name := range names {
		j, err := js.Partition(name, 0)
		if err != nil {
			return 0, err
		}
		if err := j.Replay(func(journal.Record) error { n++; return nil }); err != nil {
			return 0, err
		}
		if err := js.CloseRun(name); err != nil {
			return 0, err
		}
	}
	return float64(n), nil
}

// counterValue reads one unlabeled counter from a registry.
func counterValue(reg *metrics.Registry, name string) float64 {
	for _, p := range reg.Gather() {
		if p.Name == name && len(p.Labels) == 0 {
			return p.Value
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}

// ms renders a duration the way the DSL reads it.
func ms(d time.Duration) string { return fmt.Sprintf("%dms", d.Milliseconds()) }
