// Package flag is the Bifrost feature-flag SDK: the client side of the
// engine's "flag" enactment target. Instead of routing requests through a
// Bifrost proxy, an application embeds this client, polls the engine for
// the service's current ruleset, and evaluates routing decisions
// in-process — the fastest possible data plane, with no proxy hop at all.
//
// Cohort assignment is byte-for-byte consistent with the proxy's
// sticky-session semantics: both sides hash the user identity through
// core.Selector, so a user who hits a proxy-fronted service and a
// flag-evaluated service in the same strategy lands in the same cohort.
//
//	c := &flag.Client{BaseURL: "http://engine:8080/flags", Service: "search"}
//	if err := c.Refresh(ctx); err != nil { ... }
//	c.Start() // background polling; defer c.Close()
//
//	d, ok := c.Decide(userID)
//	// d.Version is the variant, d.Endpoint where it runs.
package flag

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"bifrost/internal/core"
	"bifrost/internal/httpx"
	"bifrost/internal/uuid"
)

// InstanceHeader carries the SDK instance identity on ruleset polls; the
// engine's flag store uses it to count live instances and report
// convergence the same way it reports proxy-fleet acks.
const InstanceHeader = "X-Bifrost-Flag-Instance"

// Ruleset is the engine-rendered routing state for one service: the wire
// format served at GET {BaseURL}/{service} and evaluated client-side.
type Ruleset struct {
	Service    string    `json:"service"`
	Strategy   string    `json:"strategy"`
	Generation int64     `json:"generation"`
	Sticky     bool      `json:"sticky"`
	Mode       string    `json:"mode,omitempty"` // "" (weighted/cookie) or "header"
	Header     string    `json:"header,omitempty"`
	Variants   []Variant `json:"variants"`
}

// Variant is one routable version with its normalized traffic share.
type Variant struct {
	Name     string  `json:"name"`
	Endpoint string  `json:"endpoint"`
	Weight   float64 `json:"weight"`
}

// Decision is the outcome of evaluating a ruleset for one user.
type Decision struct {
	// Version is the variant the user is assigned to.
	Version string
	// Endpoint is where that variant's instances are reachable.
	Endpoint string
	// Generation identifies the ruleset the decision came from.
	Generation int64
}

// snapshot is the immutable evaluated form of a ruleset; Decide reads it
// lock-free through Client.mu-free atomics-style replacement under mu.
type snapshot struct {
	set       Ruleset
	selector  *core.Selector
	endpoints map[string]string
}

// Client polls the engine for a service's ruleset and evaluates routing
// decisions locally. The zero value plus BaseURL and Service is ready;
// all methods are safe for concurrent use.
type Client struct {
	// BaseURL is the engine's flag endpoint root, e.g.
	// "http://engine:8080/flags".
	BaseURL string
	// Service names the service whose ruleset this client evaluates.
	Service string
	// HTTPClient overrides http.DefaultClient for polls.
	HTTPClient *http.Client
	// PollInterval is the background refresh cadence (default 5s).
	PollInterval time.Duration
	// InstanceID identifies this SDK instance to the engine's convergence
	// tracking; defaults to a random UUID on first use.
	InstanceID string

	mu       sync.Mutex
	snap     *snapshot
	rng      *rand.Rand
	stopPoll chan struct{}
	pollDone chan struct{}
}

// Refresh fetches the current ruleset once and swaps it in.
func (c *Client) Refresh(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/"+url.PathEscape(c.Service), nil)
	if err != nil {
		return err
	}
	req.Header.Set(InstanceHeader, c.instance())
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("flag: poll %q: %w", c.Service, err)
	}
	defer httpx.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var p httpx.Problem
		if err := httpx.ReadJSONBody(resp.Body, &p); err == nil && p.Status != 0 {
			return fmt.Errorf("flag: poll %q: %w", c.Service, &p)
		}
		return fmt.Errorf("flag: poll %q: unexpected status %d", c.Service, resp.StatusCode)
	}
	var set Ruleset
	if err := httpx.ReadJSONBody(resp.Body, &set); err != nil {
		return fmt.Errorf("flag: poll %q: %w", c.Service, err)
	}
	return c.Load(set)
}

// Load installs a ruleset directly, bypassing HTTP — for tests, benches,
// and rulesets delivered out-of-band.
func (c *Client) Load(set Ruleset) error {
	weights := make(map[string]float64, len(set.Variants))
	endpoints := make(map[string]string, len(set.Variants))
	for _, v := range set.Variants {
		weights[v.Name] = v.Weight
		endpoints[v.Name] = v.Endpoint
	}
	rc := core.RoutingConfig{Service: set.Service, Weights: weights}
	sel, err := core.NewSelector(&rc)
	if err != nil {
		return fmt.Errorf("flag: ruleset for %q: %w", set.Service, err)
	}
	c.mu.Lock()
	c.snap = &snapshot{set: set, selector: sel, endpoints: endpoints}
	c.mu.Unlock()
	return nil
}

// Start begins background polling every PollInterval. Calling Start twice
// without Close is a no-op.
func (c *Client) Start() {
	c.mu.Lock()
	if c.stopPoll != nil {
		c.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stopPoll, c.pollDone = stop, done
	interval := c.PollInterval
	c.mu.Unlock()
	if interval <= 0 {
		interval = 5 * time.Second
	}
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			// Keep serving the last good snapshot on poll failure: a
			// briefly unreachable engine must not take routing down.
			_ = c.Refresh(ctx)
			cancel()
		}
	}()
}

// Close stops background polling and waits for the poller to exit.
func (c *Client) Close() {
	c.mu.Lock()
	stop, done := c.stopPoll, c.pollDone
	c.stopPoll, c.pollDone = nil, nil
	c.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Decide evaluates the current ruleset for a user identity (cookie value,
// account ID, or — in header mode — the externally assigned group name).
// It reports false when no ruleset has been loaded yet.
func (c *Client) Decide(user string) (Decision, bool) {
	c.mu.Lock()
	snap := c.snap
	c.mu.Unlock()
	if snap == nil {
		return Decision{}, false
	}
	var version string
	if snap.set.Mode == "header" {
		// Header routing: the caller's value names a variant directly;
		// unknown values fall through to the weighted split, matching the
		// proxy's decide path.
		if _, ok := snap.endpoints[user]; ok {
			version = user
		}
	}
	if version == "" {
		if snap.set.Sticky {
			// Same hash as the proxy's sticky assignment: η is a pure
			// function of (config, user), so proxy and SDK agree.
			version = snap.selector.Assign(user)
		} else {
			version = snap.selector.Pick(c.randFloat())
		}
	}
	return Decision{
		Version:    version,
		Endpoint:   snap.endpoints[version],
		Generation: snap.set.Generation,
	}, true
}

// Generation returns the loaded ruleset's generation, or 0 before the
// first load.
func (c *Client) Generation() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.snap == nil {
		return 0
	}
	return c.snap.set.Generation
}

func (c *Client) instance() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.InstanceID == "" {
		if u, err := uuid.NewV4(); err == nil {
			c.InstanceID = u.String()
		} else {
			c.InstanceID = fmt.Sprintf("flag-%d", time.Now().UnixNano())
		}
	}
	return c.InstanceID
}

func (c *Client) randFloat() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c.rng.Float64()
}
