// Package shop implements the case-study application of the paper's
// evaluation (§5.1.1): a microservice e-commerce site selling consumer
// electronics, consisting of a frontend, three RESTful services (product,
// search, auth), a document database, a metrics provider, and an
// nginx-style gateway as the central entry point.
//
// The product and search services exist in multiple versions (product A/B,
// fastSearch) whose behaviour differs in latency and conversion, so live
// testing strategies have something real to measure. Every service
// instruments a metrics registry and calls its dependencies over real HTTP,
// which is what makes dark-launch traffic amplification (auth + product +
// database) observable, as in the paper.
package shop

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"bifrost/internal/docstore"
	"bifrost/internal/httpx"
	"bifrost/internal/metrics"
	"bifrost/internal/uuid"
)

// SeedCatalog inserts n consumer-electronics products into the store and
// returns their ids.
func SeedCatalog(store *docstore.Store, n int) ([]string, error) {
	kinds := []string{"TV", "Laptop", "Phone", "Tablet", "Camera", "Monitor", "Router", "Speaker"}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		kind := kinds[i%len(kinds)]
		id, err := store.Insert("products", docstore.Document{
			"_id":      fmt.Sprintf("p-%03d", i),
			"name":     fmt.Sprintf("%s Model %d", kind, i),
			"kind":     kind,
			"price":    float64(50 + (i*37)%950),
			"keywords": strings.ToLower(kind),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// SeedUsers inserts n user accounts (email user-i@example.com, password
// "secret") and returns their emails.
func SeedUsers(store *docstore.Store, n int) ([]string, error) {
	if err := store.EnsureUniqueIndex("users", "email"); err != nil {
		return nil, err
	}
	emails := make([]string, 0, n)
	for i := 0; i < n; i++ {
		email := fmt.Sprintf("user-%d@example.com", i)
		if _, err := store.Insert("users", docstore.Document{
			"email": email, "password": "secret",
		}); err != nil {
			return nil, err
		}
		emails = append(emails, email)
	}
	return emails, nil
}

// Auth is the authentication service: it issues bearer tokens on login and
// validates them for the other services.
type Auth struct {
	dbURL    string
	registry *metrics.Registry

	mu     sync.Mutex
	tokens map[string]string // token -> email
}

// NewAuth creates the auth service backed by the document store at dbURL.
func NewAuth(dbURL string, registry *metrics.Registry) *Auth {
	if registry == nil {
		registry = metrics.NewRegistry()
	}
	return &Auth{
		dbURL:    dbURL,
		registry: registry,
		tokens:   make(map[string]string, 128),
	}
}

// Registry exposes the service's metrics.
func (a *Auth) Registry() *metrics.Registry { return a.registry }

// Handler returns the HTTP interface.
func (a *Auth) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /auth/login", a.handleLogin)
	mux.HandleFunc("GET /auth/validate", a.handleValidate)
	mux.HandleFunc("GET /-/healthy", healthy("auth"))
	mux.Handle("GET /metrics", a.registry.Handler())
	return mux
}

type loginRequest struct {
	Email    string `json:"email"`
	Password string `json:"password"`
}

func (a *Auth) handleLogin(w http.ResponseWriter, r *http.Request) {
	labels := metrics.Labels{"service": "auth"}
	a.registry.Counter("shop_requests_total", labels).Inc()
	var req loginRequest
	if err := httpx.ReadJSON(r, &req); err != nil {
		httpx.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Verify credentials against the user collection in the database.
	var users []docstore.Document
	err := httpx.PostJSON(r.Context(), a.dbURL+"/db/users/find", docstore.FindRequest{
		Equals: map[string]any{"email": req.Email, "password": req.Password},
		Limit:  1,
	}, &users)
	if err != nil {
		a.registry.Counter("shop_request_errors_total", labels).Inc()
		httpx.WriteError(w, http.StatusBadGateway, "user lookup: "+err.Error())
		return
	}
	if len(users) == 0 {
		a.registry.Counter("shop_auth_denied_total", labels).Inc()
		httpx.WriteError(w, http.StatusUnauthorized, "bad credentials")
		return
	}
	token := uuid.MustNewV4().String()
	a.mu.Lock()
	a.tokens[token] = req.Email
	a.mu.Unlock()
	a.registry.Counter("shop_logins_total", labels).Inc()
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"token": token})
}

func (a *Auth) handleValidate(w http.ResponseWriter, r *http.Request) {
	labels := metrics.Labels{"service": "auth"}
	a.registry.Counter("shop_requests_total", labels).Inc()
	token := bearerToken(r)
	a.mu.Lock()
	email, ok := a.tokens[token]
	a.mu.Unlock()
	if !ok {
		a.registry.Counter("shop_auth_denied_total", labels).Inc()
		httpx.WriteError(w, http.StatusUnauthorized, "invalid token")
		return
	}
	httpx.WriteJSON(w, http.StatusOK, map[string]string{"email": email})
}

func bearerToken(r *http.Request) string {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if strings.HasPrefix(h, prefix) {
		return h[len(prefix):]
	}
	return ""
}

// validateWith checks the request's bearer token against the auth service.
func validateWith(ctx context.Context, authURL string, r *http.Request) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, authURL+"/auth/validate", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", r.Header.Get("Authorization"))
	resp, err := httpx.Client.Do(req)
	if err != nil {
		return fmt.Errorf("auth unreachable: %w", err)
	}
	defer httpx.DrainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("auth rejected: status %d", resp.StatusCode)
	}
	return nil
}

// VariantProfile shapes a service version's observable behaviour, giving
// live tests real differences to detect.
type VariantProfile struct {
	// Version labels the variant's metrics ("product", "productA", …).
	Version string
	// ExtraLatency is added to every request (a slower implementation).
	ExtraLatency time.Duration
	// ErrorRate injects HTTP 500s with this probability (0..1); failure
	// injection for canary and exception-check tests.
	ErrorRate float64
	// ConversionBoost scales how often Buy requests convert into sales
	// metrics (A/B test business-metric differences). 1.0 is neutral.
	ConversionBoost float64
	// Seed makes injected randomness reproducible.
	Seed int64
}

func (p VariantProfile) normalized() VariantProfile {
	if p.ConversionBoost == 0 {
		p.ConversionBoost = 1
	}
	return p
}

func healthy(service string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		httpx.WriteJSON(w, http.StatusOK, map[string]string{
			"status": "ok", "service": service,
		})
	}
}

// variantGate applies the profile's latency and error injection; it
// returns false after writing an error response.
type variantGate struct {
	profile VariantProfile
	mu      sync.Mutex
	rng     *rand.Rand
}

func newVariantGate(p VariantProfile) *variantGate {
	seed := p.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &variantGate{profile: p.normalized(), rng: rand.New(rand.NewSource(seed))}
}

func (g *variantGate) pass(w http.ResponseWriter) bool {
	if g.profile.ExtraLatency > 0 {
		time.Sleep(g.profile.ExtraLatency)
	}
	if g.profile.ErrorRate > 0 {
		g.mu.Lock()
		failed := g.rng.Float64() < g.profile.ErrorRate
		g.mu.Unlock()
		if failed {
			httpx.WriteError(w, http.StatusInternalServerError, "injected failure")
			return false
		}
	}
	return true
}

func (g *variantGate) converts(base float64) bool {
	p := base * g.profile.ConversionBoost
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rng.Float64() < p
}
