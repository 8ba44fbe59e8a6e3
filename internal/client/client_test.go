package client

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the client's injected Now/Sleep deterministically:
// Sleep advances time instead of waiting, and records every wait.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.sleeps = append(f.sleeps, d)
	return nil
}

func (f *fakeClock) sleepCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sleeps)
}

// testClient wires a client to srv with the fake clock and a fixed
// seed so jitter (and keys) are reproducible.
func testClient(t *testing.T, url string, mut func(*Config)) (*Client, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg := Config{
		BaseURL:   url,
		Seed:      42,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  500 * time.Millisecond,
		Now:       clk.Now,
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

func TestRetryBudgetExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	c, _ := testClient(t, srv.URL, func(cfg *Config) {
		cfg.MaxAttempts = 100
		cfg.RetryBudget = 3
	})
	_, err := c.Attach("s-1").Step(context.Background())
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err %v, want ErrBudgetExhausted", err)
	}
	st := c.Snapshot()
	if st.Retries != 3 || st.BudgetDenied != 1 {
		t.Fatalf("retries %d denied %d, want 3 / 1", st.Retries, st.BudgetDenied)
	}
}

func TestBreakerOpensFailsFastAndRecovers(t *testing.T) {
	var mu sync.Mutex
	healthy := false
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		ok := healthy
		mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":"wedged"}`))
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"iter": 0, "action": 1})
	}))
	defer srv.Close()

	c, clk := testClient(t, srv.URL, func(cfg *Config) {
		cfg.BreakerThreshold = 3
		cfg.BreakerCooldown = time.Second
	})
	s := c.Attach("s-1")
	// 500s are not retryable, so each call is one attempt; three of
	// them trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := s.Step(context.Background()); err == nil {
			t.Fatal("step against wedged server succeeded")
		}
	}
	if got := c.Snapshot().BreakerTrips; got != 1 {
		t.Fatalf("breaker trips %d, want 1", got)
	}
	// While open, the next call waits out the cooldown locally, then
	// sends the single half-open probe — which still fails, re-opening.
	mu.Lock()
	before := calls
	mu.Unlock()
	if _, err := s.Step(context.Background()); err == nil {
		t.Fatal("probe against wedged server succeeded")
	}
	mu.Lock()
	if calls != before+1 {
		t.Fatalf("open breaker let %d calls through, want 1 probe", calls-before)
	}
	healthy = true
	mu.Unlock()
	if clk.sleepCount() == 0 {
		t.Fatal("open breaker never waited out its cooldown")
	}
	// Healthy again: the next probe closes the circuit and the call
	// succeeds within the same client call.
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatalf("step after recovery: %v", err)
	}
	if _, err := s.Step(context.Background()); err != nil {
		t.Fatalf("step with closed breaker: %v", err)
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
