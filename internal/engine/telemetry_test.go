package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"phasetune/internal/obsv"
	"phasetune/internal/obsv/obsvtest"
)

// fakeNanos returns a deterministic injected clock: each reading
// advances one simulated millisecond, so telemetry tests never touch
// the wall clock.
func fakeNanos() func() int64 {
	var n atomic.Int64
	return func() int64 { return n.Add(1e6) }
}

func telemetryServer(t *testing.T, workers int) (*httptest.Server, *Engine, *obsv.Telemetry) {
	t.Helper()
	tel := obsv.NewTelemetry(fakeNanos())
	e := NewWithOptions(Options{Workers: workers, Telemetry: tel})
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(srv.Close)
	return srv, e, tel
}

func get(t *testing.T, url, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestMetricsContentNegotiation pins /metrics to the Prometheus text
// exposition: it must parse and carry the documented families, and
// every Accept header gets the same text format.
func TestMetricsContentNegotiation(t *testing.T) {
	srv, _, _ := telemetryServer(t, 2)

	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 7, Tiles: 4,
	}, &created)
	for i := 0; i < 3; i++ {
		postJSON(t, srv.URL+"/v1/sessions/"+created.ID+"/step", struct{}{}, nil)
	}

	// Valid exposition with the engine, HTTP and telemetry families
	// present.
	resp, text := get(t, srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("text /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != prometheusContentType {
		t.Fatalf("text /metrics content type %q", ct)
	}
	fams, err := obsvtest.ParsePrometheus(text)
	if err != nil {
		t.Fatalf("Prometheus exposition invalid: %v\n%s", err, text)
	}
	for _, name := range []string{
		"phasetune_workers", "phasetune_sessions", "phasetune_iterations_total",
		"phasetune_cache_hits_total", "phasetune_cache_misses_total",
		"phasetune_session_regret_seconds",
		"phasetune_pool_admission_wait_seconds", "phasetune_eval_latency_seconds",
		"phasetune_cache_requests_misses_total",
		"phasetune_strategy_proposals_total",
		"phasetune_http_request_seconds", "phasetune_http_requests_total",
	} {
		if fams[name] == nil {
			t.Fatalf("exposition missing family %q", name)
		}
	}
	if fams["phasetune_eval_latency_seconds"].Type != "histogram" {
		t.Fatalf("eval latency type %q", fams["phasetune_eval_latency_seconds"].Type)
	}
	// The step route must appear as a label on the HTTP families.
	var sawRoute, sawStrategy bool
	for _, s := range fams["phasetune_http_requests_total"].Samples {
		if s.Labels["route"] == "POST /v1/sessions/{id}/step" && s.Labels["code"] == "200" {
			sawRoute = true
		}
	}
	for _, s := range fams["phasetune_strategy_proposals_total"].Samples {
		if s.Labels["strategy"] == "DC" && s.Value >= 3 {
			sawStrategy = true
		}
	}
	if !sawRoute || !sawStrategy {
		t.Fatalf("expected labels missing: route=%t strategy=%t", sawRoute, sawStrategy)
	}

	// An explicit Accept, whatever it names, gets the same exposition.
	for _, accept := range []string{"text/plain", "application/json"} {
		resp, text2 := get(t, srv.URL+"/metrics", accept)
		if resp.StatusCode != http.StatusOK || !bytes.HasPrefix(text2, []byte("# HELP")) ||
			resp.Header.Get("Content-Type") != prometheusContentType {
			t.Fatalf("Accept: %s gave status %d, body %q...", accept, resp.StatusCode, text2[:40])
		}
	}
}

// testTrace is a valid X-Phasetune-Trace context for traced test
// requests.
const testTrace = "00000000000000ab-00000000000000cd"

// postTraced is postJSON for a request carrying header as its
// X-Phasetune-Trace context; it returns the status.
func postTraced(t *testing.T, url, header string, body any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.TraceHeader, header)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestSessionTraceEndToEnd drives a session over HTTP with traced
// requests and checks the exported Chrome trace spans the whole stack:
// the request root span, pool admission, the DES evaluation and at
// least one sim-time task event on its own process track. A headerless
// step on the same server leaves no trace.
func TestSessionTraceEndToEnd(t *testing.T) {
	srv, _, _ := telemetryServer(t, 2)

	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 1, Tiles: 4,
	}, &created)
	base := srv.URL + "/v1/sessions/" + created.ID
	for i := 0; i < 2; i++ {
		if code := postTraced(t, base+"/step", testTrace, struct{}{}); code != http.StatusOK {
			t.Fatalf("traced step: status %d", code)
		}
	}
	if code := postTraced(t, base+"/batch-step", testTrace, batchStepRequest{K: 2}); code != http.StatusOK {
		t.Fatalf("traced batch-step: status %d", code)
	}

	resp, data := get(t, base+"/trace", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace content type %q", ct)
	}
	if _, err := obsvtest.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if err := obsvtest.WriteArtifact(*artifacts, created.ID+".trace.json", data); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"POST /v1/sessions/{id}/step":       false,
		"POST /v1/sessions/{id}/batch-step": false,
		"session.step":                      false,
		"strategy.propose":                  false,
		"cache.lookup":                      false,
		"pool.admit":                        false,
		"des.eval":                          false,
	}
	var simTask bool
	for _, ev := range doc.TraceEvents {
		if _, ok := want[ev.Name]; ok && ev.PID == 1 {
			want[ev.Name] = true
		}
		// Sim-time task events live on pids >= 100 with a workload phase
		// as their category.
		if ev.Ph == "X" && ev.PID >= 100 && (ev.Cat == "gen" || ev.Cat == "potrf" ||
			strings.Contains(ev.Cat, "trsm") || strings.Contains(ev.Cat, "gemm")) {
			simTask = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("trace missing span %q", name)
		}
	}
	if !simTask {
		t.Fatal("trace carries no sim-time task events")
	}

	// Unknown session: 404.
	if resp, _ := get(t, srv.URL+"/v1/sessions/nope/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-session trace status %d", resp.StatusCode)
	}

	// A headerless step runs untraced: its session has no trace.
	var quiet createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 2, Tiles: 4,
	}, &quiet)
	postJSON(t, srv.URL+"/v1/sessions/"+quiet.ID+"/step", struct{}{}, nil)
	if resp, _ := get(t, srv.URL+"/v1/sessions/"+quiet.ID+"/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("headerless-step trace status %d, want 404", resp.StatusCode)
	}

	// Telemetry off: the route answers 404, not a broken trace.
	plain := httptest.NewServer(NewServer(New(1)))
	defer plain.Close()
	var c2 createSessionResponse
	postJSON(t, plain.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 1, Tiles: 4,
	}, &c2)
	if resp, _ := get(t, plain.URL+"/v1/sessions/"+c2.ID+"/trace", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("telemetry-off trace status %d", resp.StatusCode)
	}
}

// TestUntracedRequestRecordsNothing: with telemetry on, step,
// batch-step and stream-step requests without a trace context (or
// with a malformed one) record no span, and opening their root costs
// no allocation.
func TestUntracedRequestRecordsNothing(t *testing.T) {
	srv, e, tel := telemetryServer(t, 2)
	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 3, Tiles: 4,
	}, &created)
	base := srv.URL + "/v1/sessions/" + created.ID
	for _, route := range []string{"/step", "/batch-step", "/stream-step"} {
		for _, header := range []string{"", "not-a-trace"} {
			if code := postTraced(t, base+route, header, batchStepRequest{K: 2}); code != http.StatusOK {
				t.Fatalf("%s with header %q: status %d", route, header, code)
			}
		}
	}
	if ids := tel.Trace.Sessions(); len(ids) != 0 {
		t.Fatalf("untraced requests recorded spans for %v", ids)
	}

	s := NewServerWithOptions(e, ServerOptions{})
	req := httptest.NewRequest(http.MethodPost, "/v1/sessions/s1/step", nil)
	allocs := testing.AllocsPerRun(100, func() {
		sc, end := s.startTrace(req, "s1", "POST /v1/sessions/{id}/step")
		ctx := obsv.ContextWith(req.Context(), sc)
		obsv.FromContext(ctx).Span("des", "des.eval")(nil)
		end()
	})
	if allocs != 0 {
		t.Fatalf("an untraced request allocates %v times for tracing", allocs)
	}
}

// TestTraceAllRecordsHeaderless: under ServerOptions.TraceAll a step
// without a trace context roots a fresh trace.
func TestTraceAllRecordsHeaderless(t *testing.T) {
	tel := obsv.NewTelemetry(fakeNanos())
	e := NewWithOptions(Options{Workers: 1, Telemetry: tel})
	srv := httptest.NewServer(NewServerWithOptions(e, ServerOptions{TraceAll: true}))
	t.Cleanup(srv.Close)
	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 4, Tiles: 4,
	}, &created)
	postJSON(t, srv.URL+"/v1/sessions/"+created.ID+"/step", struct{}{}, nil)
	resp, data := get(t, srv.URL+"/v1/sessions/"+created.ID+"/trace", "")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"des.eval"`)) {
		t.Fatalf("headerless step under TraceAll: trace status %d, %d bytes", resp.StatusCode, len(data))
	}
}

// TestSessionIDValidatedBeforeTrace: a traced request naming an
// invalid session id answers 400 before any span opens, so the id
// never names a trace (nor, under -trace-dir, a file).
func TestSessionIDValidatedBeforeTrace(t *testing.T) {
	srv, _, tel := telemetryServer(t, 1)
	for _, route := range []string{"step", "batch-step", "stream-step"} {
		if code := postTraced(t, srv.URL+"/v1/sessions/..%2Fescape/"+route, testTrace, struct{}{}); code != http.StatusBadRequest {
			t.Fatalf("traced %s on ../escape: status %d, want 400", route, code)
		}
	}
	if code := postTraced(t, srv.URL+"/v1/replica/..%2Fescape/promote", testTrace, map[string]int{"gen": 2}); code != http.StatusBadRequest {
		t.Fatalf("traced promote of ../escape: status %d, want 400", code)
	}
	if ids := tel.Trace.Sessions(); len(ids) != 0 {
		t.Fatalf("invalid ids named traces: %v", ids)
	}
}

// TestObservationLogTelemetryInvariant is the telemetry-flavoured twin
// of TestObservationLogByteIdentical: turning metrics and tracing on
// must not perturb a single observed bit, at one worker and at four,
// with and without span contexts threaded through the request path.
func TestObservationLogTelemetryInvariant(t *testing.T) {
	run := func(workers int, telemetry bool) []byte {
		var opts Options
		opts.Workers = workers
		var tel *obsv.Telemetry
		if telemetry {
			tel = obsv.NewTelemetry(fakeNanos())
			opts.Telemetry = tel
		}
		e := NewWithOptions(opts)
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 1234, Tiles: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		step := func(batch int) {
			ctx := context.Background()
			if telemetry {
				sc, end := tel.Trace.StartRequest(s.id, "POST step")
				defer end()
				ctx = obsv.ContextWith(ctx, sc)
			}
			if batch > 0 {
				_, _, err = e.BatchStepIdem(ctx, s.id, batch, "")
			} else {
				_, _, err = e.StepIdem(ctx, s.id, "")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			step(0)
		}
		for b := 0; b < 3; b++ {
			step(4)
		}
		res, err := e.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}
		if telemetry {
			if _, ok := tel.Trace.Export(s.id); !ok {
				t.Fatal("telemetry run recorded no trace")
			}
		}
		return observationLog(t, res)
	}

	for _, workers := range []int{1, 4} {
		off := run(workers, false)
		on := run(workers, true)
		if !bytes.Equal(off, on) {
			t.Fatalf("observation log differs with telemetry at workers=%d:\noff:\n%s\non:\n%s",
				workers, off, on)
		}
	}
}

// disabledHooks exercises, once, every telemetry touchpoint a step
// passes through when telemetry is off: the context probe, span
// opens/closes through a nil SpanCtx, and nil-instrument updates.
// Mirrors the per-step instrumentation in eval/advance/journal.
func disabledHooks(ctx context.Context, sink *int) {
	sc := obsv.FromContext(ctx)
	if sc.Tracing() {
		*sink++
	}
	sc.Span("session", "session.step")(nil)
	sc.Span("strategy", "strategy.propose")(nil)
	sc.Span("cache", "cache.lookup")(nil)
	sc.Span("pool", "pool.admit")(nil)
	sc.Span("des", "des.eval")(nil)
	var c *obsv.Counter
	var h *obsv.Histogram
	c.Inc()
	h.Observe(0)
	var tel *obsv.Telemetry
	if tel != nil {
		*sink++
	}
}

// hooksPerStep deliberately overcounts the disabled-path telemetry
// touchpoints of one engine step (span probes, nil instruments, tel
// checks) so the overhead bound below is conservative.
const hooksPerStep = 32

// overheadBound is the documented ceiling on disabled-telemetry
// overhead per engine step (2%). DESIGN.md quotes this constant; the
// CI job obsv-overhead fails when the measurement exceeds it.
const overheadBound = 0.02

// TestDisabledTelemetryOverheadBound measures the cost of the nil-hook
// ensemble against the latency of a real cache-missing engine step and
// asserts the documented <2% bound with a heavy safety margin. Each is
// timed as its minimum over interleaved rounds: go test runs packages
// side by side, and load from them inflates a measurement only if it
// covers every round of it.
func TestDisabledTelemetryOverheadBound(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	// Cost of one full hook ensemble, disabled path.
	ctx := context.Background()
	const ensembleRuns = 200000
	hooks := func() float64 {
		var sink int
		start := time.Now()
		for i := 0; i < ensembleRuns; i++ {
			disabledHooks(ctx, &sink)
		}
		if sink != 0 {
			t.Fatalf("disabled hooks took an enabled branch (%d)", sink)
		}
		return float64(time.Since(start).Nanoseconds()) / ensembleRuns
	}

	// Latency of real steps on a fresh engine (every eval a cache miss),
	// at 12 tiles, the smallest size the benchmark workloads run. Since
	// the iteration graph is built once per shape, a 4-tile step costs
	// 30-55 µs, too little to stand for a real one.
	const steps = 8
	step := func() float64 {
		e := New(1)
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "DC", Seed: 7, Tiles: 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < steps; i++ {
			if _, _, err := e.StepIdem(ctx, s.id, ""); err != nil {
				t.Fatal(err)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / steps
	}

	const rounds = 5
	hookNs, stepNs := hooks(), step()
	for r := 1; r < rounds; r++ {
		hookNs = min(hookNs, hooks())
		stepNs = min(stepNs, step())
	}

	frac := hookNs * hooksPerStep / stepNs
	t.Logf("disabled hooks: %.1f ns/ensemble, step: %.0f ns (minima over %d rounds), overhead fraction %.5f (bound %.2f)",
		hookNs, stepNs, rounds, frac, overheadBound)
	if frac >= overheadBound {
		t.Fatalf("disabled-telemetry overhead %.4f exceeds documented bound %.2f", frac, overheadBound)
	}
}

// BenchmarkDisabledTelemetryHooks times the complete per-step hook
// ensemble on the disabled path; CI publishes it from the
// obsv-overhead job.
func BenchmarkDisabledTelemetryHooks(b *testing.B) {
	var sink int
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		disabledHooks(ctx, &sink)
	}
	if sink != 0 {
		b.Fatal("enabled branch taken")
	}
}

// BenchmarkStepTelemetry compares full engine steps in the three
// telemetry modes, on a shared-cache workload: off (no telemetry),
// metrics (telemetry on, request untraced — every request without a
// trace context) and traced (metrics plus spans).
func BenchmarkStepTelemetry(b *testing.B) {
	for _, mode := range []string{"off", "metrics", "traced"} {
		b.Run(mode, func(b *testing.B) {
			var opts Options
			opts.Workers = 1
			var tel *obsv.Telemetry
			if mode != "off" {
				tel = obsv.NewTelemetry(fakeNanos())
				opts.Telemetry = tel
			}
			e := NewWithOptions(opts)
			s, err := e.CreateSession(SessionConfig{
				ScenarioKey: "b", Strategy: "UCB", Seed: 7, Tiles: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := context.Background()
				end := func() {}
				if mode == "traced" {
					var sc *obsv.SpanCtx
					sc, end = tel.Trace.StartRequest(s.id, "bench")
					ctx = obsv.ContextWith(ctx, sc)
				}
				if _, _, err := e.StepIdem(ctx, s.id, ""); err != nil {
					b.Fatal(err)
				}
				end()
			}
		})
	}
}
