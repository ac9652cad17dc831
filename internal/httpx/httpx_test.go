package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echo struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

func TestServerStartShutdown(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"pong": "ok"})
	})
	srv, err := NewServer("127.0.0.1:0", mux)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Start()

	var out map[string]string
	if err := GetJSON(context.Background(), srv.URL()+"/ping", &out); err != nil {
		t.Fatalf("GetJSON: %v", err)
	}
	if out["pong"] != "ok" {
		t.Errorf("pong = %q", out["pong"])
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := GetJSON(context.Background(), srv.URL()+"/ping", &out); err == nil {
		t.Fatal("request after shutdown succeeded")
	}
}

func TestPostJSONRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var in echo
		if err := ReadJSON(r, &in); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
		in.Count++
		WriteJSON(w, http.StatusOK, in)
	}))
	defer ts.Close()

	var out echo
	err := PostJSON(context.Background(), ts.URL, echo{Name: "fastSearch", Count: 1}, &out)
	if err != nil {
		t.Fatalf("PostJSON: %v", err)
	}
	if out.Name != "fastSearch" || out.Count != 2 {
		t.Errorf("out = %+v", out)
	}
}

func TestErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusConflict, "strategy already running")
	}))
	defer ts.Close()

	err := GetJSON(context.Background(), ts.URL, &struct{}{})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type = %T (%v), want *Error", err, err)
	}
	if apiErr.StatusCode != http.StatusConflict {
		t.Errorf("status = %d, want 409", apiErr.StatusCode)
	}
	if !strings.Contains(apiErr.Message, "already running") {
		t.Errorf("message = %q", apiErr.Message)
	}
}

func TestReadJSONRejectsUnknownFieldsAndTrailing(t *testing.T) {
	mk := func(body string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		return r
	}
	var v echo
	if err := ReadJSON(mk(`{"name":"a","bogus":1}`), &v); err == nil {
		t.Error("unknown field accepted")
	}
	if err := ReadJSON(mk(`{"name":"a"} {"name":"b"}`), &v); err == nil {
		t.Error("trailing data accepted")
	}
	if err := ReadJSON(mk(`{"name":"a","count":3}`), &v); err != nil {
		t.Errorf("valid body rejected: %v", err)
	}
}

func TestPutJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut {
			WriteError(w, http.StatusMethodNotAllowed, "want PUT")
			return
		}
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	defer ts.Close()
	var out map[string]bool
	if err := PutJSON(context.Background(), ts.URL, echo{}, &out); err != nil {
		t.Fatalf("PutJSON: %v", err)
	}
	if !out["ok"] {
		t.Error("ok = false")
	}
}

func TestGetJSONNilTarget(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]int{"n": 1})
	}))
	defer ts.Close()
	if err := PostJSON(context.Background(), ts.URL, nil, nil); err != nil {
		t.Fatalf("PostJSON nil target: %v", err)
	}
}

// TestShutdownClosesConnectionWithoutRequest: when two requests race
// through one client, the slower dial can lose to the first request's
// connection coming back idle; its connection then sits in the client's
// pool without ever carrying a request. A graceful Shutdown must not wait
// for it (http.Server counts such a connection idle only after 5 s).
func TestShutdownClosesConnectionWithoutRequest(t *testing.T) {
	served := make(chan string, 64)
	srv, err := NewServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served <- r.RemoteAddr
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}))
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	srv.Start()

	// Each attempt races two requests through a fresh transport whose
	// second dial is slow, until a dialed connection carried no request.
	var transports []*http.Transport
	defer func() {
		for _, tr := range transports {
			tr.CloseIdleConnections()
		}
	}()
	leftover := false
	for attempt := 0; attempt < 20 && !leftover; attempt++ {
		var mu sync.Mutex
		var dialed []string
		dials := 0
		tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			mu.Lock()
			dials++
			slow := dials > 1
			mu.Unlock()
			if slow {
				time.Sleep(50 * time.Millisecond)
			}
			c, err := (&net.Dialer{}).DialContext(context.Background(), network, addr)
			if err == nil {
				mu.Lock()
				dialed = append(dialed, c.LocalAddr().String())
				mu.Unlock()
			}
			return c, err
		}}
		transports = append(transports, tr)
		client := &http.Client{Transport: tr}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := client.Get(srv.URL()); err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		time.Sleep(100 * time.Millisecond) // the slow dial completes
		used := map[string]bool{}
		for len(served) > 0 {
			used[<-served] = true
		}
		mu.Lock()
		for _, addr := range dialed {
			leftover = leftover || !used[addr]
		}
		mu.Unlock()
	}
	if !leftover {
		t.Fatal("no connection was left without a request in 20 attempts")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("graceful Shutdown took %v with a connection that never carried a request, want < 1s", took)
	}
}

// countingServer serves h and counts the connections it accepts.
func countingServer(t *testing.T, h http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TestDrainCloseReusesConnection: a response ended with DrainClose hands
// its connection back to the pool, whether its body is a small
// fixed-length one left unread or a chunked one only partly consumed by a
// JSON decoder, so 20 sequential GETs open one connection.
func TestDrainCloseReusesConnection(t *testing.T) {
	large := make([]echo, 400) // about 10 KB of JSON: sent chunked
	for i := range large {
		large[i] = echo{Name: "replica-status", Count: i}
	}
	for _, tc := range []struct {
		name    string
		payload any
		decode  bool
		chunked bool
	}{
		{name: "small fixed-length unread", payload: echo{Name: "ok"}},
		{name: "large chunked decoded", payload: large, decode: true, chunked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, conns := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
				WriteJSON(w, http.StatusOK, tc.payload)
			})
			client := &http.Client{Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			for i := 0; i < 20; i++ {
				resp, err := client.Get(srv.URL)
				if err != nil {
					t.Fatal(err)
				}
				if chunked := resp.ContentLength < 0; chunked != tc.chunked {
					t.Fatalf("response chunked = %v, want %v", chunked, tc.chunked)
				}
				if tc.decode {
					var got []echo
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || len(got) != len(large) {
						t.Fatalf("decode: %d items, %v", len(got), err)
					}
				}
				DrainClose(resp.Body)
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("20 GETs opened %d connections, want 1", n)
			}
		})
	}
}

// TestDrainCloseOversizedBodyClosesPromptly: DrainClose reads at most
// MaxBodyBytes, so a body that never ends is cut off rather than read
// forever, and the server sees its connection close.
func TestDrainCloseOversizedBodyClosesPromptly(t *testing.T) {
	handlerDone := make(chan struct{})
	srv, _ := countingServer(t, func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		chunk := make([]byte, 64<<10)
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	resp, err := client.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		DrainClose(resp.Body)
		close(closed)
	}()
	for _, ch := range []chan struct{}{closed, handlerDone} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("an endless body kept DrainClose or its connection open")
		}
	}
}
