package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/trace"
)

// traceEventsResponse is the GET /v1/trace body: one process's slice
// of a fleet trace in local pid/tid numbering.
type traceEventsResponse struct {
	Events []trace.ChromeEvent `json:"events"`
	// Base is the recorder's clock base in nanoseconds; the fleet
	// stitcher uses it to put every process's events on one time axis.
	Base int64 `json:"base"`
}

// eventsResponse is the GET /v1/events body.
type eventsResponse struct {
	Events  []events.Event `json:"events"`
	Evicted uint64         `json:"evicted,omitempty"`
}

// ServerOptions configures the service hardening around the engine API.
type ServerOptions struct {
	// MaxInFlight is the admission high-water mark for evaluation-bearing
	// requests (step, batch-step, sweep): beyond it the server answers
	// 429 with Retry-After instead of queueing without bound (<= 0
	// selects 4x the engine's worker count).
	MaxInFlight int
	// MaxBodyBytes bounds every request body (<= 0 selects 1 MiB).
	MaxBodyBytes int64
	// EvalTimeout, when > 0, bounds each evaluation-bearing request:
	// the request context is cancelled after this long, and waiting for
	// pool slots or in-flight computations stops with 504.
	EvalTimeout time.Duration
	// TraceAll records every step, batch-step and stream-step: one
	// without a valid X-Phasetune-Trace context roots a fresh trace
	// here instead of running untraced. phasetune-serve sets it for
	// -trace-dir. No effect on an engine without telemetry.
	TraceAll bool
}

const (
	defaultMaxBodyBytes      = int64(1 << 20)
	defaultInFlightPerWorker = 4
)

// Server is the engine's HTTP/JSON API with the service hardening the
// bare mux never had: bounded and strictly-decoded request bodies,
// admission control with backpressure, per-request evaluation timeouts,
// health and readiness endpoints, and a draining mode for graceful
// shutdown.
//
//	POST /v1/sessions                     create a session (optional client-assigned "id")
//	GET  /v1/sessions/{id}                session result (trajectory, best, regret)
//	POST /v1/sessions/{id}/step           one sequential tuning step
//	POST /v1/sessions/{id}/batch-step     k speculative steps (constant liar)
//	POST /v1/sessions/{id}/stream-step    k speculative steps, streamed as ndjson lines
//	                                      as each one commits (no batch barrier)
//	POST /v1/sessions/{id}/advance-epoch  platform changed: new epoch, evict stale cache
//	POST /v1/sweep                        parallel f(n) sweep over a scenario
//	GET  /v1/cache/peek                   shard peers probe the evaluation cache
//	                                      (?fp=&epoch=&action= -> {"found","value"})
//	POST /v1/replica/{id}/append          a session owner ships journal records (ndjson)
//	                                      for replication; fsync'd before the ack
//	POST /v1/replica/{id}/promote         supervisor promotes the local replica into a
//	                                      live session at a bumped generation
//	GET  /v1/replica/status               replica journals held here + live generations
//	GET  /metrics                         Prometheus text exposition
//	GET  /v1/sessions/{id}/trace          Chrome trace-event JSON of the session's recorded spans
//	GET  /v1/trace                        this process's raw span events for one fleet trace id
//	                                      (?trace=) or session (?session=), for the router's stitcher
//	GET  /v1/events                       this process's structured event log (session lifecycle,
//	                                      replication state changes, fencing)
//	GET  /healthz                         process liveness (always 200 while serving)
//	GET  /readyz                          readiness: 503 while draining or closed
//
// Every body is JSON; errors come back as {"error": "..."} with a
// 4xx/5xx status. The handler is safe for concurrent use — sessions
// serialize their own steps, everything else is engine state behind
// locks.
type Server struct {
	e    *Engine
	mux  *http.ServeMux
	opts ServerOptions
	gate chan struct{}
	// state is the /readyz lifecycle: starting (journal recovery in
	// progress, /v1 routes reject), ready, draining (graceful shutdown;
	// /v1 keeps serving so admitted work finishes).
	state atomic.Int32
	// retrySeq drives the jittered Retry-After values (see
	// retryAfterSeconds).
	retrySeq atomic.Uint64
}

// Server lifecycle states reported by /readyz.
const (
	stateReady int32 = iota
	stateStarting
	stateDraining
)

// NewServer returns the engine's HTTP API with default hardening.
func NewServer(e *Engine) http.Handler {
	return NewServerWithOptions(e, ServerOptions{})
}

// NewServerWithOptions returns the engine's HTTP API hardened per opts.
func NewServerWithOptions(e *Engine, opts ServerOptions) *Server {
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = defaultInFlightPerWorker * e.Workers()
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBodyBytes
	}
	s := &Server{
		e:    e,
		mux:  http.NewServeMux(),
		opts: opts,
		gate: make(chan struct{}, opts.MaxInFlight),
	}
	s.routes()
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Handle registers an extra route on the server's mux, wrapped with the
// same per-route telemetry as the built-in routes. The service binary
// uses this to mount deployment-specific endpoints (peer-set
// administration) without the engine package importing them.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.handle(pattern, h) }

// WriteError writes the server's standard JSON error envelope, with the
// jittered Retry-After on retryable statuses (429/503).
func (s *Server) WriteError(w http.ResponseWriter, status int, err error) { s.error(w, status, err) }

// WriteJSON writes the server's standard 2-space-indented JSON response.
func (s *Server) WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// DecodeJSON exposes the hardened request decoding (bounded body,
// unknown fields and trailing garbage rejected) to extra routes
// registered via Handle. The returned status is usable with WriteError.
func (s *Server) DecodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return s.decodeJSON(w, r, v)
}

// SetDraining flips the readiness signal: a draining server answers
// /readyz with 503 so load balancers stop routing new work to it while
// in-flight requests finish. The other endpoints keep serving — the
// point of the drain is to finish what was admitted. SetDraining(false)
// returns the server to ready.
func (s *Server) SetDraining(v bool) {
	if v {
		s.state.Store(stateDraining)
	} else {
		s.state.Store(stateReady)
	}
}

// SetStarting marks the server as not yet recovered: /readyz answers
// 503 with a "starting" reason and every /v1 route rejects with 503
// until SetReady. This lets the listener come up (so orchestrators see
// liveness and an honest readiness reason) while journal recovery
// replays sessions underneath.
func (s *Server) SetStarting() { s.state.Store(stateStarting) }

// SetReady marks recovery complete: /readyz answers 200 and the /v1
// routes serve.
func (s *Server) SetReady() { s.state.Store(stateReady) }

// Jittered Retry-After bounds, in seconds. Backpressure and
// unavailability answers spread their retry hints uniformly over
// [retryAfterMin, retryAfterMax] so a synchronized client fleet —
// every client rejected in the same overload instant — does not come
// back in lockstep and recreate the spike it was turned away from.
const (
	retryAfterMin = 1
	retryAfterMax = 5
)

// retryAfterSeconds returns the next jittered Retry-After value. The
// jitter source is a SplitMix64 stream over a per-response counter:
// deterministic for the lint contract (no global rand), unique per
// response, and uniformly spread across the bounds.
func (s *Server) retryAfterSeconds() int {
	n := splitmix64(s.retrySeq.Add(1))
	return retryAfterMin + int(n%uint64(retryAfterMax-retryAfterMin+1))
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

// error writes an error response, attaching a jittered Retry-After on
// the statuses that invite a retry (429 and 503).
func (s *Server) error(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.setRetryAfter(w)
	}
	httpError(w, status, err)
}

// serving gates every /v1 route on the lifecycle state: while starting
// (journal recovery in progress) the API is not safe to serve —
// sessions are mid-replay — so requests are rejected with 503 and a
// retry hint rather than answered from half-recovered state.
func (s *Server) serving(w http.ResponseWriter) bool {
	if s.state.Load() == stateStarting {
		s.error(w, http.StatusServiceUnavailable,
			fmt.Errorf("not ready: journal recovery in progress"))
		return false
	}
	return true
}

// admit implements the backpressure policy for evaluation-bearing
// requests: past the high-water mark the caller gets an immediate 429
// with a jittered Retry-After instead of a place in an unbounded
// queue. release must be called iff admitted.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.gate <- struct{}{}:
		return func() { <-s.gate }, true
	default:
		s.error(w, http.StatusTooManyRequests,
			fmt.Errorf("evaluation pool saturated (%d requests in flight); retry later", cap(s.gate)))
		return nil, false
	}
}

// idemKey extracts and validates the request's Idempotency-Key header.
// An invalid key is answered with 400 and ok=false; an absent key is
// valid (ok=true, empty string).
func (s *Server) idemKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.Header.Get("Idempotency-Key")
	if err := ValidateIdemKey(key); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return "", false
	}
	return key, true
}

// markReplayed tags a response served from the idempotency registry,
// so clients and tests can distinguish a replay from a fresh commit.
func markReplayed(w http.ResponseWriter, replayed bool) {
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
}

// evalContext derives the request context used for evaluation waits,
// applying the per-request timeout when configured.
func (s *Server) evalContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.EvalTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.EvalTimeout)
	}
	return r.Context(), func() {}
}

// beginStep is the shared preamble of the step, batch-step and
// stream-step routes: serving state, the session id, the request body
// (req, when the route takes one), the idempotency key, admission, the
// evaluation timeout and the request's root trace span. On success the
// returned context carries the span and done releases everything in
// reverse order; on failure the response is already written.
func (s *Server) beginStep(w http.ResponseWriter, r *http.Request, route string, req *batchStepRequest) (context.Context, string, func(), bool) {
	if !s.serving(w) {
		return nil, "", nil, false
	}
	// The id names the request's trace, and -trace-dir names a file
	// after it, so it is checked before any span opens.
	if err := ValidateSessionID(r.PathValue("id")); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return nil, "", nil, false
	}
	if req != nil {
		if err := s.decodeJSON(w, r, req); err != nil {
			s.error(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
			return nil, "", nil, false
		}
	}
	key, ok := s.idemKey(w, r)
	if !ok {
		return nil, "", nil, false
	}
	release, ok := s.admit(w)
	if !ok {
		return nil, "", nil, false
	}
	ctx, cancel := s.evalContext(r)
	sc, endReq := s.startTrace(r, r.PathValue("id"), route)
	return obsv.ContextWith(ctx, sc), key, func() {
		endReq()
		cancel()
		release()
	}, true
}

// decodeJSON hardens request-body decoding: the body is bounded by
// MaxBytesReader (oversized payloads answer 413), unknown fields are
// rejected, trailing garbage is rejected, and an empty body decodes as
// the zero value (every request type has usable defaults).
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if errors.Is(err, io.EOF) {
			return nil // empty body: defaults
		}
		return err
	}
	// A second value (or trailing garbage) is a malformed request, not
	// something to silently ignore.
	if err := dec.Decode(&struct{}{}); !errors.Is(err, io.EOF) {
		return fmt.Errorf("request body holds more than one JSON value")
	}
	return nil
}

// bodyStatus maps a decode failure onto its HTTP status: over-limit
// bodies are 413, everything else a plain 400.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusWriter captures the response status for the route metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handle registers a route, wrapping it with per-route telemetry when
// the engine carries it: request latency by route, status-code counters
// and the 429/413/504 rejection tally. With telemetry off the handler
// is registered bare — no wrapper on the disabled path.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	tel := s.e.tel
	if tel == nil {
		s.mux.HandleFunc(pattern, h)
		return
	}
	lat := tel.Reg.Histogram("phasetune_http_request_seconds",
		"wall-clock seconds per HTTP request", obsv.DurationBuckets,
		obsv.Labels{"route": pattern})
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := tel.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		lat.Observe(tel.Seconds(t0))
		code := strconv.Itoa(sw.code)
		tel.Reg.Counter("phasetune_http_requests_total",
			"HTTP requests by route and status code",
			obsv.Labels{"route": pattern, "code": code}).Inc()
		switch sw.code {
		case http.StatusTooManyRequests, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
			tel.Reg.Counter("phasetune_http_rejections_total",
				"requests rejected by admission control, body limits or eval timeouts",
				obsv.Labels{"code": code}).Inc()
		}
	})
}

// startTrace opens the root wall-clock span of a step, batch-step or
// stream-step request by joinTrace's rule: the first hop decides, so
// a request is traced only when it carries a trace context. Under
// ServerOptions.TraceAll a request without one roots a fresh trace
// here instead. The returned SpanCtx (nil when untraced) threads
// through the request context into the engine's spans.
func (s *Server) startTrace(r *http.Request, session, name string) (*obsv.SpanCtx, func()) {
	if s.e.tel == nil {
		return nil, func() {}
	}
	link, ok := obsv.ParseTraceContext(r.Header.Get(obsv.TraceHeader))
	if !ok && !s.opts.TraceAll {
		return nil, func() {}
	}
	return s.e.tel.Trace.StartRequestLink(session, name, link)
}

// joinTrace opens a root span only when the request carries a trace
// header — for hop endpoints (replica appends, peer peeks, promotions)
// that join fleet traces but never start their own.
func (s *Server) joinTrace(r *http.Request, session, name string) (*obsv.SpanCtx, func()) {
	if s.e.tel == nil {
		return nil, func() {}
	}
	link, ok := obsv.ParseTraceContext(r.Header.Get(obsv.TraceHeader))
	if !ok {
		return nil, func() {}
	}
	return s.e.tel.Trace.StartRequestLink(session, name, link)
}

// writePrometheus renders the engine snapshot (Engine.Metrics) as
// Prometheus text, then appends the live telemetry registry when the
// engine carries one. Rendering into a buffer lets errors surface as a
// 500 before any header is written.
func (s *Server) writePrometheus(buf *bytes.Buffer) error {
	m := s.e.Metrics()
	reg := obsv.NewRegistry()
	reg.Gauge("phasetune_workers",
		"evaluation concurrency bound", nil).Set(float64(m.Workers))
	reg.Gauge("phasetune_pool_in_flight_evals",
		"evaluations holding a pool slot right now", nil).Set(float64(m.InFlightEvals))
	reg.Gauge("phasetune_pool_waiting_evals",
		"callers blocked on a pool slot right now", nil).Set(float64(m.WaitingEvals))
	reg.Counter("phasetune_cache_hits_total",
		"evaluation-cache hits since start", nil).Add(float64(m.Cache.Hits))
	reg.Counter("phasetune_cache_misses_total",
		"evaluation-cache misses since start", nil).Add(float64(m.Cache.Misses))
	reg.Gauge("phasetune_cache_in_flight",
		"cache computations in flight", nil).Set(float64(m.Cache.InFlight))
	reg.Gauge("phasetune_cache_entries",
		"memoized evaluations resident in the cache", nil).Set(float64(m.Cache.Entries))
	reg.Gauge("phasetune_cache_hit_ratio",
		"hits / (hits + misses)", nil).Set(m.Cache.HitRatio)
	reg.Gauge("phasetune_sessions",
		"live tuning sessions", nil).Set(float64(m.SessionsTotal))
	reg.Counter("phasetune_iterations_total",
		"committed tuning iterations across all sessions", nil).Add(float64(m.IterationsTotal))
	for _, sr := range m.Sessions {
		labels := obsv.Labels{"session": sr.ID, "strategy": sr.Strategy}
		reg.Gauge("phasetune_session_regret_seconds",
			"cumulative deterministic regret, simulated seconds", labels).Set(sr.Regret)
		reg.Gauge("phasetune_session_iterations",
			"committed iterations of the session", labels).Set(float64(sr.Iterations))
		reg.Gauge("phasetune_session_epoch",
			"platform epoch the session runs under", labels).Set(float64(sr.Epoch))
	}
	if err := reg.WritePrometheus(buf); err != nil {
		return err
	}
	if tel := s.e.tel; tel != nil {
		return tel.Reg.WritePrometheus(buf)
	}
	return nil
}

// prometheusContentType is the text exposition format version header.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

func (s *Server) routes() {
	s.handle("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		var req createSessionRequest
		if err := s.decodeJSON(w, r, &req); err != nil {
			s.error(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
			return
		}
		sess, err := s.e.CreateSession(SessionConfig{
			ID:          req.ID,
			ScenarioKey: req.Scenario,
			Strategy:    req.Strategy,
			Seed:        req.Seed,
			Tiles:       req.Tiles,
			Exact:       req.Exact,
			GenNodes:    req.GenNodes,
		})
		if err != nil {
			s.error(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusCreated, createSessionResponse{
			ID:       sess.id,
			Scenario: sess.ev.Scenario.Name,
			Strategy: sess.driver.Name(),
			Nodes:    sess.ev.Scenario.Platform.N(),
			MinNodes: sess.ev.Scenario.MinNodes,
			Groups:   sess.ev.Scenario.Platform.GroupSizes(),
			Seed:     sess.seed,
		})
	})
	s.handle("GET /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		res, err := s.e.Result(r.PathValue("id"))
		if err != nil {
			s.error(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	s.handle("GET /v1/sessions/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		id := r.PathValue("id")
		if s.e.tel == nil {
			s.error(w, http.StatusNotFound,
				fmt.Errorf("tracing disabled (engine runs without telemetry)"))
			return
		}
		if _, ok := s.e.Session(id); !ok {
			s.error(w, http.StatusNotFound, fmt.Errorf("engine: no session %q", id))
			return
		}
		data, ok := s.e.tel.Trace.Export(id)
		if !ok {
			s.error(w, http.StatusNotFound, fmt.Errorf("no trace recorded for session %q", id))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
	})
	s.handle("GET /v1/trace", func(w http.ResponseWriter, r *http.Request) {
		// The fleet stitcher's per-process export: this process's raw
		// events for one fleet trace id (?trace=) or one session
		// (?session=), still in local pid/tid numbering. Open at every
		// lifecycle stage — a draining or recovering process's spans are
		// exactly what a fleet investigation wants.
		if s.e.tel == nil {
			s.error(w, http.StatusNotFound,
				fmt.Errorf("tracing disabled (engine runs without telemetry)"))
			return
		}
		q := r.URL.Query()
		traceID, session := q.Get("trace"), q.Get("session")
		var (
			evs []trace.ChromeEvent
			ok  bool
		)
		switch {
		case traceID != "":
			evs, ok = s.e.tel.Trace.TraceEvents(traceID)
		case session != "":
			evs, ok = s.e.tel.Trace.SessionEvents(session)
		default:
			s.error(w, http.StatusBadRequest, fmt.Errorf("need a trace or session parameter"))
			return
		}
		if !ok {
			s.error(w, http.StatusNotFound, fmt.Errorf("no spans recorded here for trace %q session %q", traceID, session))
			return
		}
		writeJSON(w, http.StatusOK, traceEventsResponse{Events: evs, Base: s.e.tel.Trace.Base()})
	})
	s.handle("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		// The process's structured event log. An engine without telemetry
		// (or without an attached log) serves an empty list rather than
		// erroring, so fleet merging treats "nothing happened" and
		// "nothing recorded" alike.
		var resp eventsResponse
		if s.e.tel != nil {
			resp.Events = s.e.tel.Events.Events()
			resp.Evicted = s.e.tel.Events.Evicted()
		}
		if resp.Events == nil {
			resp.Events = []events.Event{}
		}
		writeJSON(w, http.StatusOK, resp)
	})
	s.handle("POST /v1/sessions/{id}/step", func(w http.ResponseWriter, r *http.Request) {
		ctx, key, done, ok := s.beginStep(w, r, "POST /v1/sessions/{id}/step", nil)
		if !ok {
			return
		}
		defer done()
		res, replayed, err := s.e.StepIdem(ctx, r.PathValue("id"), key)
		if err != nil {
			s.error(w, statusFor(err), err)
			return
		}
		markReplayed(w, replayed)
		writeJSON(w, http.StatusOK, res)
	})
	s.handle("POST /v1/sessions/{id}/batch-step", func(w http.ResponseWriter, r *http.Request) {
		var req batchStepRequest
		ctx, key, done, ok := s.beginStep(w, r, "POST /v1/sessions/{id}/batch-step", &req)
		if !ok {
			return
		}
		defer done()
		res, replayed, err := s.e.BatchStepIdem(ctx, r.PathValue("id"), req.K, key)
		if err != nil {
			s.error(w, statusFor(err), err)
			return
		}
		markReplayed(w, replayed)
		writeJSON(w, http.StatusOK, batchStepResponse{Steps: res})
	})
	s.handle("POST /v1/sessions/{id}/stream-step", func(w http.ResponseWriter, r *http.Request) {
		var req batchStepRequest
		ctx, key, done, ok := s.beginStep(w, r, "POST /v1/sessions/{id}/stream-step", &req)
		if !ok {
			return
		}
		defer done()

		// The response is ndjson: one line per committed step, flushed
		// immediately, then a terminal {"done":true,"steps":N} line. The
		// 200 header goes out when the operation is admitted (after the
		// proposals are durable), so errors before that point use the
		// normal JSON statuses while a mid-stream failure arrives
		// in-band as {"error":...,"status":...} after the committed
		// prefix — the prefix stays committed either way.
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		started := false
		writeLine := func(v any) {
			_ = enc.Encode(v)
			if flusher != nil {
				flusher.Flush()
			}
		}
		n, _, err := s.e.StreamBatchStepIdem(ctx, r.PathValue("id"), req.K, key,
			func(replayed bool) {
				markReplayed(w, replayed)
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.WriteHeader(http.StatusOK)
				started = true
			},
			func(res StepResult) { writeLine(res) },
		)
		if err != nil {
			if !started {
				s.error(w, statusFor(err), err)
				return
			}
			writeLine(map[string]any{"error": err.Error(), "status": statusFor(err), "steps": n})
			return
		}
		writeLine(map[string]any{"done": true, "steps": n})
	})
	s.handle("GET /v1/cache/peek", func(w http.ResponseWriter, r *http.Request) {
		// Shard peers probe the evaluation cache here on their own local
		// misses. Read-only and deterministic, so it stays open at every
		// lifecycle stage (a recovering shard's primed cache is already
		// valuable to its peers) and bypasses the admission gate.
		q := r.URL.Query()
		fp := q.Get("fp")
		if fp == "" {
			s.error(w, http.StatusBadRequest, fmt.Errorf("missing fp parameter"))
			return
		}
		epoch, err := strconv.Atoi(q.Get("epoch"))
		if err != nil {
			s.error(w, http.StatusBadRequest, fmt.Errorf("bad epoch parameter: %w", err))
			return
		}
		action, err := strconv.Atoi(q.Get("action"))
		if err != nil {
			s.error(w, http.StatusBadRequest, fmt.Errorf("bad action parameter: %w", err))
			return
		}
		_, endReq := s.joinTrace(r, "peer", "GET /v1/cache/peek")
		v, found := s.e.PeekShared(CacheKey{Fingerprint: fp, Epoch: epoch, Action: action})
		endReq()
		resp := cachePeekResponse{Found: found}
		if found {
			resp.Value = &v
		}
		writeJSON(w, http.StatusOK, resp)
	})
	s.handle("POST /v1/replica/{id}/append", func(w http.ResponseWriter, r *http.Request) {
		// Session owners ship journal records here for their followers to
		// hold. The route stays open at every lifecycle stage and bypasses
		// the admission gate: replication is the owner's commit path, and
		// refusing it during this node's own recovery or under local load
		// would couple unrelated failure domains. The body is ndjson, one
		// journal record per line, bounded well above the normal request
		// cap because a full resync carries a session's whole history.
		id := r.PathValue("id")
		if err := ValidateSessionID(id); err != nil {
			s.error(w, http.StatusBadRequest, err)
			return
		}
		body := http.MaxBytesReader(w, r.Body, replicaMaxBodyBytes)
		dec := json.NewDecoder(body)
		var recs []journalRecord
		for {
			var rec journalRecord
			if err := dec.Decode(&rec); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				s.error(w, bodyStatus(err), fmt.Errorf("bad replica batch: %w", err))
				return
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			s.error(w, http.StatusBadRequest, fmt.Errorf("empty replica batch"))
			return
		}
		// Followers join the owner's trace (the hop span shipped in the
		// header becomes this root span's parent) but never start one:
		// an untraced ship records nothing here.
		sc, endReq := s.joinTrace(r, id, "POST /v1/replica/{id}/append")
		defer endReq()
		seq, err := s.e.AppendReplica(obsv.ContextWith(r.Context(), sc), id, recs)
		if err != nil {
			s.error(w, replicaStatusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int64{"seq": seq})
	})
	s.handle("POST /v1/replica/{id}/promote", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		id := r.PathValue("id")
		if err := ValidateSessionID(id); err != nil {
			s.error(w, http.StatusBadRequest, err)
			return
		}
		var req struct {
			Gen uint64 `json:"gen"`
		}
		if err := s.decodeJSON(w, r, &req); err != nil {
			s.error(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
			return
		}
		// A supervisor-driven promotion ships the supervisor's trace
		// context; joining it makes the takeover visible in the fleet
		// trace of the failover that caused it.
		sc, endReq := s.joinTrace(r, id, "POST /v1/replica/{id}/promote")
		defer endReq()
		res, err := s.e.PromoteReplica(obsv.ContextWith(r.Context(), sc), id, req.Gen)
		if err != nil {
			s.error(w, replicaStatusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	})
	s.handle("GET /v1/replica/status", func(w http.ResponseWriter, r *http.Request) {
		type liveSession struct {
			ID      string `json:"id"`
			Gen     uint64 `json:"gen"`
			Lagging bool   `json:"lagging"`
		}
		resp := struct {
			Replicas []ReplicaSession `json:"replicas"`
			Sessions []liveSession    `json:"sessions"`
		}{Replicas: s.e.ReplicaStatus()}
		for _, sr := range s.e.Metrics().Sessions {
			gen, _ := s.e.Generation(sr.ID)
			resp.Sessions = append(resp.Sessions, liveSession{
				ID: sr.ID, Gen: gen, Lagging: s.e.ReplicationLagging(sr.ID),
			})
		}
		writeJSON(w, http.StatusOK, resp)
	})
	s.handle("POST /v1/sessions/{id}/advance-epoch", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		key, ok := s.idemKey(w, r)
		if !ok {
			return
		}
		epoch, replayed, err := s.e.AdvanceEpochIdem(r.Context(), r.PathValue("id"), key)
		if err != nil {
			s.error(w, statusFor(err), err)
			return
		}
		markReplayed(w, replayed)
		writeJSON(w, http.StatusOK, map[string]int{"epoch": epoch})
	})
	s.handle("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		if !s.serving(w) {
			return
		}
		var req sweepRequest
		if err := s.decodeJSON(w, r, &req); err != nil {
			s.error(w, bodyStatus(err), fmt.Errorf("bad request body: %w", err))
			return
		}
		sc, ok := platformScenario(req.Scenario)
		if !ok {
			s.error(w, http.StatusBadRequest, fmt.Errorf("unknown scenario %q", req.Scenario))
			return
		}
		key, ok := s.idemKey(w, r)
		if !ok {
			return
		}
		release, ok := s.admit(w)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.evalContext(r)
		defer cancel()
		res, replayed, err := s.e.SweepKeyed(ctx, key, req.fingerprint(), SweepArgs{
			Scenario:  sc,
			Opts:      simOptions(req),
			SweepOpts: SweepOptions{NoiseSD: req.NoiseSD, Reps: req.Reps, Seed: req.Seed},
		})
		if err != nil {
			s.error(w, statusFor(err), err)
			return
		}
		markReplayed(w, replayed)
		writeJSON(w, http.StatusOK, res)
	})
	s.handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		if err := s.writePrometheus(&buf); err != nil {
			s.error(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = buf.WriteTo(w)
	})
	s.handle("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.handle("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// The three unready answers carry distinct machine-readable
		// reasons: "starting" means recovery has not finished (retry the
		// same instance), "draining" means a graceful shutdown is
		// finishing admitted work (route elsewhere). Both are 503 with a
		// jittered Retry-After.
		notReady := func(status, reason string) {
			s.setRetryAfter(w)
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": status,
				"reason": reason,
			})
		}
		switch {
		case s.e.closed.Load():
			notReady("draining", "engine closed; journals flushed, process exiting")
		case s.state.Load() == stateDraining:
			notReady("draining", "graceful shutdown in progress; in-flight requests are finishing")
		case s.state.Load() == stateStarting:
			notReady("starting", "journal recovery in progress; sessions not yet restored")
		default:
			writeJSON(w, http.StatusOK, map[string]any{
				"status":   "ready",
				"workers":  s.e.Workers(),
				"inflight": len(s.gate),
			})
		}
	})
}
