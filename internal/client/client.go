// Package client is the resilient Go client for the phasetune-serve
// HTTP API. It wraps the raw JSON surface with the retry discipline the
// engine's idempotency contract makes safe:
//
//   - every mutating call (step, batch-step, advance-epoch, sweep)
//     carries a client-generated Idempotency-Key, and a create carries
//     the session id the client minted for it, so retries replay the
//     journaled result instead of double-applying the operation;
//   - transient failures (connection resets, 429/502/503/504) back off
//     exponentially with full jitter and honor the server's Retry-After
//     hint, for at most MaxAttempts attempts per call;
//   - context deadlines propagate: the client never sleeps past the
//     caller's deadline, and gives the verdict it has instead.
//
// That is the only bound on retries. Shedding load is the server's
// job, where the load is known: a worker's admission gate answers 429
// and the router 503, each with a Retry-After the backoff honors.
//
// The zero Config is usable; tests inject Sleep for a fake clock.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"phasetune/internal/engine"
	"phasetune/internal/obsv"
)

// Config tunes the client's retry loop. Zero values select the
// documented defaults.
type Config struct {
	// BaseURL roots every request, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient, when nil, selects a dedicated http.Client (no global
	// shared state with other clients).
	HTTPClient *http.Client

	// MaxAttempts bounds tries per call, first attempt included
	// (default 8).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 2s). A larger server
	// Retry-After hint still wins: honoring the hint is the point.
	MaxDelay time.Duration
	// AttemptTimeout, when > 0, bounds each individual attempt, so one
	// black-holed connection costs one attempt, not the whole deadline.
	AttemptTimeout time.Duration

	// Seed fixes the jitter stream and the instance identity for
	// reproducible runs; 0 draws a random identity. The identity
	// prefixes every idempotency key and every session id the client
	// mints, so a fixed seed repeats them across runs: two runs with
	// one seed against one live server replay each other's creates and
	// sweeps. Give concurrent clients of one server distinct seeds.
	Seed uint64

	// Sleep injects the backoff clock. It must return early with the
	// context's error when it is cancelled. Nil selects the wall clock.
	Sleep func(ctx context.Context, d time.Duration) error

	// Trace, when set, makes the client the first hop of fleet traces:
	// each API call opens a root span on the recorder and every HTTP
	// attempt (first try and each retry) gets its own child hop span,
	// whose id ships to the server in the X-Phasetune-Trace header.
	// Nil — the default — disables tracing entirely: no header is
	// emitted and the hot path allocates nothing.
	Trace *obsv.TraceRecorder
}

// APIError is a non-2xx response decoded from the server's
// {"error": ...} body.
type APIError struct {
	Status     int
	Message    string
	RetryAfter int // seconds, 0 when the header was absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: server answered %d: %s", e.Status, e.Message)
}

// Stats counts what the retry loop did, for load harnesses and tests.
// Read them through Snapshot.
type Stats struct {
	Calls    uint64 // top-level API calls
	Attempts uint64 // HTTP attempts, first tries included
	Retries  uint64 // attempts beyond the first
	Replays  uint64 // responses served from the idempotency journal
}

// Client is a resilient phasetune-serve API client. Safe for
// concurrent use.
type Client struct {
	cfg      Config
	hc       *http.Client
	base     string
	instance string
	seq      atomic.Uint64 // idempotency-key counter
	jitter   atomic.Uint64 // jitter stream counter
	jseed    uint64

	calls    atomic.Uint64
	attempts atomic.Uint64
	retries  atomic.Uint64
	replays  atomic.Uint64
}

// New returns a client for the phasetune-serve instance at
// cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, fmt.Errorf("client: BaseURL is required")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 50 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Second
	}
	if cfg.Sleep == nil {
		cfg.Sleep = defaultSleep
	}
	seed := cfg.Seed
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return nil, fmt.Errorf("client: derive instance identity: %w", err)
		}
		seed = binary.LittleEndian.Uint64(b[:])
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{
		cfg:      cfg,
		hc:       hc,
		base:     strings.TrimRight(cfg.BaseURL, "/"),
		instance: fmt.Sprintf("%016x", splitmix64(seed)),
		jseed:    splitmix64(seed + 1),
	}, nil
}

// defaultSleep waits d on the wall clock, returning early with the
// context's error when cancelled — that is how caller deadlines cut
// backoff waits short.
func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) //lint:allow determinism wall-clock backoff sleeper; deterministic tests inject a fake
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Snapshot returns the client's retry counters.
func (c *Client) Snapshot() Stats {
	return Stats{
		Calls:    c.calls.Load(),
		Attempts: c.attempts.Load(),
		Retries:  c.retries.Load(),
		Replays:  c.replays.Load(),
	}
}

// nextKey mints a fresh idempotency key or session id: unique per
// client instance and operation, stable across retries of the same call
// because it is drawn once before the retry loop.
func (c *Client) nextKey() string {
	return fmt.Sprintf("%s-%d", c.instance, c.seq.Add(1))
}

// jitterFloat draws the next value in [0, 1) from the client's
// deterministic jitter stream.
func (c *Client) jitterFloat() float64 {
	n := splitmix64(c.jseed + c.jitter.Add(1))
	return float64(n>>11) / (1 << 53)
}

// backoffDelay computes the wait before retry attempt (1-based):
// full-jitter exponential backoff, floored by the server's Retry-After
// hint when one arrived. Honoring the hint means never coming back
// sooner than asked.
func (c *Client) backoffDelay(attempt, retryAfterSecs int) time.Duration {
	ceil := c.cfg.BaseDelay << uint(attempt-1)
	if ceil > c.cfg.MaxDelay || ceil <= 0 {
		ceil = c.cfg.MaxDelay
	}
	d := time.Duration(c.jitterFloat() * float64(ceil))
	if ra := time.Duration(retryAfterSecs) * time.Second; ra > d {
		d = ra
	}
	return d
}

// Session is a handle on one server-side tuning session.
type Session struct {
	c    *Client
	Info SessionInfo
}

// SessionInfo mirrors the create-session response.
type SessionInfo struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Strategy string `json:"strategy"`
	Nodes    int    `json:"nodes"`
	MinNodes int    `json:"min_nodes"`
	Groups   []int  `json:"groups"`
	Seed     int64  `json:"seed"`
}

// CreateSessionRequest mirrors POST /v1/sessions.
type CreateSessionRequest struct {
	Scenario string `json:"scenario"`
	Strategy string `json:"strategy,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Tiles    int    `json:"tiles,omitempty"`
	Exact    bool   `json:"exact,omitempty"`
	GenNodes int    `json:"gen_nodes,omitempty"`
}

// SweepRequest mirrors POST /v1/sweep.
type SweepRequest struct {
	Scenario string  `json:"scenario"`
	Tiles    int     `json:"tiles,omitempty"`
	Exact    bool    `json:"exact,omitempty"`
	NoiseSD  float64 `json:"noise_sd,omitempty"`
	Reps     int     `json:"reps,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
}

// CreateSession creates a tuning session under a session id the client
// mints, which keys the create as an idempotency key keys any other
// mutation: a retry replays the session the first attempt made.
func (c *Client) CreateSession(ctx context.Context, req CreateSessionRequest) (*Session, error) {
	var info SessionInfo
	body := struct {
		ID string `json:"id"`
		CreateSessionRequest
	}{c.nextKey(), req}
	_, err := c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sessions",
		body: body, out: &info,
	})
	if err != nil {
		return nil, err
	}
	return &Session{c: c, Info: info}, nil
}

// Attach returns a handle on an existing session (for example one that
// survived a server restart) without a create round-trip.
func (c *Client) Attach(id string) *Session {
	return &Session{c: c, Info: SessionInfo{ID: id}}
}

// Step runs one tuning step. Retried freely under a fresh idempotency
// key: a retry that lands after a crash replays the journaled result.
func (s *Session) Step(ctx context.Context) (engine.StepResult, error) {
	var res engine.StepResult
	_, err := s.c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sessions/" + s.Info.ID + "/step",
		out: &res, key: s.c.nextKey(),
	})
	return res, err
}

// BatchStep runs k speculative steps under one idempotency key.
func (s *Session) BatchStep(ctx context.Context, k int) ([]engine.StepResult, error) {
	var res struct {
		Steps []engine.StepResult `json:"steps"`
	}
	_, err := s.c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sessions/" + s.Info.ID + "/batch-step",
		body: map[string]int{"k": k}, out: &res, key: s.c.nextKey(),
	})
	return res.Steps, err
}

// StreamStep runs k speculative steps through the server's streaming
// commit path (ndjson, one line per committed step) under one
// idempotency key. The full stream is read before returning; a
// mid-stream failure surfaces as an *APIError carrying the in-band
// status, with the committed prefix returned alongside it — those
// steps are durable on the server whatever the error says.
func (s *Session) StreamStep(ctx context.Context, k int) ([]engine.StepResult, error) {
	var raw []byte
	_, err := s.c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sessions/" + s.Info.ID + "/stream-step",
		body: map[string]int{"k": k}, rawOut: &raw, key: s.c.nextKey(),
	})
	if err != nil {
		return nil, err
	}
	return parseStream(raw)
}

// parseStream decodes a stream-step ndjson body: step lines, then one
// terminal done or in-band error line.
func parseStream(raw []byte) ([]engine.StepResult, error) {
	var steps []engine.StepResult
	sawEnd := false
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var probe struct {
			Done   *bool   `json:"done"`
			Error  *string `json:"error"`
			Status int     `json:"status"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return steps, fmt.Errorf("client: bad stream line %q: %w", line, err)
		}
		switch {
		case probe.Error != nil:
			return steps, &APIError{Status: probe.Status, Message: *probe.Error}
		case probe.Done != nil:
			sawEnd = true
		default:
			var r engine.StepResult
			if err := json.Unmarshal(line, &r); err != nil {
				return steps, fmt.Errorf("client: decode stream step: %w", err)
			}
			steps = append(steps, r)
		}
	}
	if !sawEnd {
		return steps, fmt.Errorf("client: stream ended without a terminal line (%d steps read)", len(steps))
	}
	return steps, nil
}

// AdvanceEpoch declares a platform change, idempotently.
func (s *Session) AdvanceEpoch(ctx context.Context) (int, error) {
	var res struct {
		Epoch int `json:"epoch"`
	}
	_, err := s.c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sessions/" + s.Info.ID + "/advance-epoch",
		out: &res, key: s.c.nextKey(),
	})
	return res.Epoch, err
}

// Result fetches the session summary. A read: retried freely.
func (s *Session) Result(ctx context.Context) (engine.SessionResult, error) {
	var res engine.SessionResult
	_, err := s.c.do(ctx, call{
		method: http.MethodGet, path: "/v1/sessions/" + s.Info.ID,
		out: &res,
	})
	return res, err
}

// Sweep runs a parallel f(n) sweep under an idempotency key, so a
// retried sweep joins the original computation instead of launching a
// second one.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (engine.SweepResult, error) {
	var res engine.SweepResult
	_, err := c.do(ctx, call{
		method: http.MethodPost, path: "/v1/sweep",
		body: req, out: &res, key: c.nextKey(),
	})
	return res, err
}

// Ready reports whether the server answers /readyz with 200, without
// retries — readiness polling is the caller's loop.
func (c *Client) Ready(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	}
	return nil
}

// call describes one API operation for the retry loop.
type call struct {
	method string
	path   string
	body   any
	out    any
	// rawOut, when non-nil, receives the response body verbatim
	// instead of a JSON decode into out (streaming responses).
	rawOut *[]byte
	// key is the idempotency key, sent when non-empty.
	key string
}

// do runs the retry loop around one API call and reports whether the
// final response was an idempotent replay.
func (c *Client) do(ctx context.Context, op call) (replayed bool, err error) {
	c.calls.Add(1)
	var enc []byte
	if op.body != nil {
		if enc, err = json.Marshal(op.body); err != nil {
			return false, fmt.Errorf("client: encode request: %w", err)
		}
	}
	// With tracing configured the client is the trace's first hop: the
	// call gets a root span and each attempt below becomes a child hop
	// span shipped in the request header. A nil recorder yields a nil
	// sc, and every span operation on it is a pointer-check no-op.
	var sc *obsv.SpanCtx
	if c.cfg.Trace != nil {
		var endOp func()
		sc, endOp = c.cfg.Trace.StartRequest("client", op.method+" "+op.path)
		defer endOp()
	}
	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if attempt > 1 {
			// A retry: back off (honoring any Retry-After), and never
			// sleep past the caller's deadline.
			c.retries.Add(1)
			if err := c.cfg.Sleep(ctx, c.backoffDelay(attempt-1, retryAfterOf(lastErr))); err != nil {
				return false, fmt.Errorf("client: giving up during backoff: %w (last attempt: %w)", err, lastErr)
			}
		}
		c.attempts.Add(1)
		replayed, err := c.attempt(ctx, op, enc, sc, attempt)
		if err == nil {
			if replayed {
				c.replays.Add(1)
			}
			return replayed, nil
		}
		if !retryable(err) {
			return false, err
		}
		lastErr = err
	}
	return false, fmt.Errorf("client: %d attempts exhausted: %w", c.cfg.MaxAttempts, lastErr)
}

// attempt performs one HTTP exchange. Each attempt is its own hop span
// (a child of the call's root span) whose id ships in the
// X-Phasetune-Trace header, so a retried call shows every try as a
// separate span in the fleet trace. With tracing off (nil sc) no
// header is emitted and no span state is allocated.
func (c *Client) attempt(ctx context.Context, op call, body []byte, sc *obsv.SpanCtx, n int) (replayed bool, err error) {
	tc, endHop := sc.SpanLink("client", "client.attempt")
	if sc != nil {
		defer func() {
			endHop(map[string]any{"attempt": n, "ok": err == nil})
		}()
	} else {
		defer endHop(nil)
	}
	actx, cancel := ctx, context.CancelFunc(func() {})
	if c.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, op.method, c.base+op.path, rd)
	if err != nil {
		return false, fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if op.key != "" {
		req.Header.Set("Idempotency-Key", op.key)
	}
	if h := tc.Header(); h != "" {
		req.Header.Set(obsv.TraceHeader, h)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return false, fmt.Errorf("client: read response: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode}
		var m struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &m) == nil && m.Error != "" {
			apiErr.Message = m.Error
		} else {
			apiErr.Message = strings.TrimSpace(string(data))
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
			apiErr.RetryAfter = ra
		}
		return false, apiErr
	}
	if op.rawOut != nil {
		*op.rawOut = data
	} else if op.out != nil {
		if err := json.Unmarshal(data, op.out); err != nil {
			return false, fmt.Errorf("client: decode response: %w", err)
		}
	}
	return resp.Header.Get("Idempotency-Replayed") == "true", nil
}

// retryable reports whether an attempt error is worth another try.
// Every call is safe to retry — reads have no effect, and each mutation
// carries its idempotency key or its session id — so every transport
// error and every 429/502/503/504 is retried. Any other status is the
// server's verdict on the request itself, and another try would get
// the same answer.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	// A transport failure, or an attempt timeout. The caller's deadline
	// (not the per-attempt one) is checked by the sleep on the next
	// loop; an expired parent context ends the call there.
	return true
}

// retryAfterOf extracts the server's Retry-After hint from the last
// error, if any.
func retryAfterOf(err error) int {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// splitmix64 is Steele et al.'s SplitMix64 finalizer — the same mixer
// the engine uses for seed derivation — giving the client a
// deterministic, allocation-free jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
