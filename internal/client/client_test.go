package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is the client's injected Sleep made deterministic: it
// records every wait and returns at once instead of waiting.
type fakeClock struct {
	mu     sync.Mutex
	sleeps []time.Duration
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleeps = append(f.sleeps, d)
	return nil
}

// testClient wires a client to srv with the fake clock and a fixed
// seed so jitter (and keys) are reproducible.
func testClient(t *testing.T, url string, mut func(*Config)) (*Client, *fakeClock) {
	t.Helper()
	clk := &fakeClock{}
	cfg := Config{
		BaseURL:   url,
		Seed:      42,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  500 * time.Millisecond,
		Sleep:     clk.Sleep,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, clk
}

func TestRetryOn503HonorsRetryAfter(t *testing.T) {
	var mu sync.Mutex
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"draining"}`))
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"iter": 0, "action": 3})
	}))
	defer srv.Close()

	c, clk := testClient(t, srv.URL, nil)
	res, err := c.Attach("s-1").Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Action != 3 {
		t.Fatalf("step action %d, want 3", res.Action)
	}
	st := c.Snapshot()
	if st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("attempts %d retries %d, want 3 / 2", st.Attempts, st.Retries)
	}
	// Honoring Retry-After: every backoff wait is at least the server's
	// 2s hint, even though the computed backoff ceiling is far smaller.
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if len(clk.sleeps) != 2 {
		t.Fatalf("%d sleeps, want 2", len(clk.sleeps))
	}
	for i, d := range clk.sleeps {
		if d < 2*time.Second {
			t.Fatalf("sleep %d was %v: Retry-After 2s not honored", i, d)
		}
	}
}

func TestMutationRetriesReuseIdempotencyKey(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		n := len(keys)
		mu.Unlock()
		if n == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Idempotency-Replayed", "true")
		_ = json.NewEncoder(w).Encode(map[string]any{"steps": []any{}})
	}))
	defer srv.Close()

	c, _ := testClient(t, srv.URL, nil)
	if _, err := c.Attach("s-1").BatchStep(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 {
		t.Fatalf("%d attempts, want 2", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("retry switched idempotency key: %q vs %q", keys[0], keys[1])
	}
	if got := c.Snapshot().Replays; got != 1 {
		t.Fatalf("replays %d, want 1", got)
	}
}

// TestCreateRetriesKeepOneID: a create torn by an ambiguous failure —
// a 502 from a gateway, or a reset after the request went out — is
// retried, and every attempt carries the one session id the client
// minted, so the server replays whatever an earlier attempt made.
func TestCreateRetriesKeepOneID(t *testing.T) {
	for _, tear := range []string{"502", "reset"} {
		t.Run(tear, func(t *testing.T) {
			var mu sync.Mutex
			var ids []string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var body struct {
					ID       string `json:"id"`
					Scenario string `json:"scenario"`
				}
				if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
					t.Errorf("decoding create body: %v", err)
				}
				mu.Lock()
				ids = append(ids, body.ID)
				n := len(ids)
				mu.Unlock()
				if n <= 2 {
					if tear == "502" {
						w.WriteHeader(http.StatusBadGateway)
						_, _ = w.Write([]byte(`{"error":"shard unreachable"}`))
						return
					}
					conn, _, err := w.(http.Hijacker).Hijack()
					if err != nil {
						t.Errorf("hijack: %v", err)
						return
					}
					_ = conn.(*net.TCPConn).SetLinger(0) // close with RST
					_ = conn.Close()
					return
				}
				w.Header().Set("Idempotency-Replayed", "true")
				w.WriteHeader(http.StatusCreated)
				_ = json.NewEncoder(w).Encode(map[string]any{"id": body.ID, "scenario": body.Scenario})
			}))
			defer srv.Close()

			c, _ := testClient(t, srv.URL, nil)
			sess, err := c.CreateSession(context.Background(), CreateSessionRequest{Scenario: "b"})
			if err != nil {
				t.Fatalf("create across torn attempts: %v", err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(ids) != 3 {
				t.Fatalf("%d attempts, want 3", len(ids))
			}
			for i, id := range ids {
				if id == "" || id != ids[0] {
					t.Fatalf("attempt %d sent id %q, first sent %q", i, id, ids[0])
				}
			}
			if sess.Info.ID != ids[0] {
				t.Fatalf("session id %q, want %q", sess.Info.ID, ids[0])
			}
			if got := c.Snapshot().Replays; got != 1 {
				t.Fatalf("replays %d, want 1", got)
			}
		})
	}
}

func TestCreateSessionRetriesDialErrors(t *testing.T) {
	// A server that never existed: every attempt is a dial failure,
	// which is provably-unsent and therefore retried even without a
	// key.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	c, _ := testClient(t, url, func(cfg *Config) { cfg.MaxAttempts = 3 })
	_, err := c.CreateSession(context.Background(), CreateSessionRequest{Scenario: "b"})
	if err == nil {
		t.Fatal("create against dead server succeeded")
	}
	if got := c.Snapshot().Attempts; got != 3 {
		t.Fatalf("dial errors retried %d times, want 3", got)
	}
}

// TestFailuresOnOneSessionDoNotStallAnother: the failures one session
// meets cost the client's other sessions nothing. After five 500s on
// one session, a step on another goes out at once, with no wait
// before it: the only retry bound is per call.
func TestFailuresOnOneSessionDoNotStallAnother(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.URL.Path)
		mu.Unlock()
		if strings.HasPrefix(r.URL.Path, "/v1/sessions/wedged/") {
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"wedged"}`))
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"iter": 0, "action": 1})
	}))
	defer srv.Close()

	c, clk := testClient(t, srv.URL, nil)
	wedged := c.Attach("wedged")
	for i := 0; i < 5; i++ {
		// A 500 is the server's verdict, not a transient: one attempt.
		var apiErr *APIError
		if _, err := wedged.Step(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
			t.Fatalf("step %d on the wedged session: %v, want its 500", i, err)
		}
	}
	res, err := c.Attach("healthy").Step(context.Background())
	if err != nil {
		t.Fatalf("step on the healthy session: %v", err)
	}
	if res.Action != 1 {
		t.Fatalf("step action %d, want 1", res.Action)
	}
	clk.mu.Lock()
	sleeps := append([]time.Duration(nil), clk.sleeps...)
	clk.mu.Unlock()
	if len(sleeps) != 0 {
		t.Fatalf("client waited %v before sending the healthy step, want no wait", sleeps)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(paths) != 6 || paths[5] != "/v1/sessions/healthy/step" {
		t.Fatalf("server saw %v, want five wedged steps then the healthy one", paths)
	}
	if st := c.Snapshot(); st.Attempts != 6 || st.Retries != 0 {
		t.Fatalf("attempts %d retries %d, want 6 / 0", st.Attempts, st.Retries)
	}
}

func TestBackoffDelayBounds(t *testing.T) {
	c, _ := testClient(t, "http://127.0.0.1:1", nil)
	for attempt := 1; attempt <= 20; attempt++ {
		for i := 0; i < 50; i++ {
			d := c.backoffDelay(attempt, 0)
			if d < 0 || d > c.cfg.MaxDelay {
				t.Fatalf("attempt %d: delay %v outside [0, %v]", attempt, d, c.cfg.MaxDelay)
			}
		}
	}
	// The server's hint floors the wait, even beyond MaxDelay.
	if d := c.backoffDelay(1, 3); d < 3*time.Second {
		t.Fatalf("delay %v ignored Retry-After 3s", d)
	}
}

func TestDeadlineCutsBackoffShort(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	// Real sleeper, tiny deadline: the retry loop must give up with the
	// caller's deadline error instead of finishing its backoff.
	c, err := New(Config{
		BaseURL:   srv.URL,
		Seed:      7,
		BaseDelay: 50 * time.Millisecond,
		MaxDelay:  10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Attach("s-1").Step(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want DeadlineExceeded", err)
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("call outlived its deadline by %v", e)
	}
}

func TestKeysUniqueAcrossCalls(t *testing.T) {
	c, _ := testClient(t, "http://127.0.0.1:1", nil)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		k := c.nextKey()
		if seen[k] {
			t.Fatalf("duplicate idempotency key %q", k)
		}
		seen[k] = true
	}
}

// TestStreamStepDecoding drives StreamStep against canned ndjson
// bodies: one answer per attempt, each a status and a body.
func TestStreamStepDecoding(t *testing.T) {
	type answer struct {
		status int
		body   string
	}
	steps := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, `{"iter":%d,"action":%d,"duration":1.5,"sim":1.25}`+"\n", i, 10+i)
		}
		return b.String()
	}
	full := answer{http.StatusOK, steps(3) + `{"done":true,"steps":3}` + "\n"}
	cases := []struct {
		name    string
		answers []answer
		// wantSteps steps come back; wantStatus is the *APIError status
		// expected, 0 for none, -1 for an error that is no APIError.
		wantSteps, wantStatus int
		wantAttempts          uint64
	}{
		{"full stream", []answer{full}, 3, 0, 1},
		{"in-band error after two steps", []answer{{http.StatusOK,
			steps(2) + `{"error":"evaluation timed out","status":504,"steps":2}` + "\n"}}, 2, http.StatusGatewayTimeout, 1},
		{"no terminal line", []answer{{http.StatusOK, steps(2)}}, 2, -1, 1},
		{"503 before any line", []answer{{http.StatusServiceUnavailable, `{"error":"draining"}`}, full}, 3, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var keys []string
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/v1/sessions/s-1/stream-step" {
					t.Errorf("request to %s", r.URL.Path)
				}
				mu.Lock()
				keys = append(keys, r.Header.Get("Idempotency-Key"))
				a := tc.answers[min(len(keys), len(tc.answers))-1]
				mu.Unlock()
				w.WriteHeader(a.status)
				_, _ = w.Write([]byte(a.body))
			}))
			defer srv.Close()

			c, _ := testClient(t, srv.URL, nil)
			got, err := c.Attach("s-1").StreamStep(context.Background(), 3)
			if len(got) != tc.wantSteps {
				t.Fatalf("%d steps, want %d (err %v)", len(got), tc.wantSteps, err)
			}
			for i, r := range got {
				if r.Iter != i || r.Action != 10+i || r.Duration != 1.5 || r.Sim != 1.25 {
					t.Fatalf("step %d decoded as %+v", i, r)
				}
			}
			var apiErr *APIError
			switch {
			case tc.wantStatus == 0 && err != nil:
				t.Fatalf("err %v, want none", err)
			case tc.wantStatus == -1 && (err == nil || errors.As(err, &apiErr)):
				t.Fatalf("err %v, want a decoding error", err)
			case tc.wantStatus > 0 && (!errors.As(err, &apiErr) || apiErr.Status != tc.wantStatus):
				t.Fatalf("err %v, want an APIError with status %d", err, tc.wantStatus)
			}
			if st := c.Snapshot(); st.Attempts != tc.wantAttempts || st.Retries != tc.wantAttempts-1 {
				t.Fatalf("attempts %d retries %d, want %d / %d", st.Attempts, st.Retries, tc.wantAttempts, tc.wantAttempts-1)
			}
			mu.Lock()
			defer mu.Unlock()
			for i, k := range keys {
				if k == "" || k != keys[0] {
					t.Fatalf("attempt %d sent key %q, first sent %q", i, k, keys[0])
				}
			}
		})
	}
}
