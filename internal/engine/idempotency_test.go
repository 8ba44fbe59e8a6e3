package engine

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sameStep asserts two step results are bit-identical.
func sameStep(t *testing.T, tag string, got, want StepResult) {
	t.Helper()
	if got.Iter != want.Iter || got.Action != want.Action || got.CacheHit != want.CacheHit ||
		math.Float64bits(got.Duration) != math.Float64bits(want.Duration) ||
		math.Float64bits(got.Sim) != math.Float64bits(want.Sim) {
		t.Fatalf("%s: %+v, want %+v", tag, got, want)
	}
}

func TestStepIdempotentReplay(t *testing.T) {
	e := NewWithOptions(Options{Workers: 2, JournalDir: t.TempDir()})
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, replayed, err := e.StepIdem(context.Background(), s.id, "op-1")
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("first commit reported as replayed")
	}
	// A retry must return the original result without a second
	// application, no matter how often it is retried.
	for i := 0; i < 3; i++ {
		again, replayed, err := e.StepIdem(context.Background(), s.id, "op-1")
		if err != nil {
			t.Fatal(err)
		}
		if !replayed {
			t.Fatalf("retry %d not reported as replayed", i)
		}
		sameStep(t, "replayed step", again, first)
	}
	res, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("retries double-applied: %d iterations, want 1", res.Iterations)
	}
	// The same key on a different operation is a conflict, not a replay.
	if _, _, err := e.BatchStepIdem(context.Background(), s.id, 2, "op-1"); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("key reuse across ops: err %v, want ErrIdemConflict", err)
	}
	if _, _, err := e.AdvanceEpochIdem(context.Background(), s.id, "op-1"); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("key reuse across ops: err %v, want ErrIdemConflict", err)
	}
}

func TestBatchStepIdempotentReplay(t *testing.T) {
	// No journal: the in-memory registry alone must already make
	// retries safe for a non-durable engine.
	e := New(2)
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "UCB", Seed: 5, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	first, replayed, err := e.BatchStepIdem(context.Background(), s.id, 3, "b-1")
	if err != nil {
		t.Fatal(err)
	}
	if replayed || len(first) == 0 {
		t.Fatalf("first batch: replayed=%t, %d steps", replayed, len(first))
	}
	again, replayed, err := e.BatchStepIdem(context.Background(), s.id, 3, "b-1")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || len(again) != len(first) {
		t.Fatalf("retry: replayed=%t, %d steps, want %d", replayed, len(again), len(first))
	}
	for i := range first {
		sameStep(t, "replayed batch step", again[i], first[i])
	}
	res, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != len(first) {
		t.Fatalf("retry double-applied: %d iterations, want %d", res.Iterations, len(first))
	}
	// A different batch width under the same key is a different request.
	if _, _, err := e.BatchStepIdem(context.Background(), s.id, 2, "b-1"); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("key reuse with different k: err %v, want ErrIdemConflict", err)
	}
}

func TestAdvanceEpochIdempotent(t *testing.T) {
	e := New(1)
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 1, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	ep1, replayed, err := e.AdvanceEpochIdem(context.Background(), s.id, "e-1")
	if err != nil || replayed {
		t.Fatalf("first advance: epoch %d, replayed %t, err %v", ep1, replayed, err)
	}
	ep2, replayed, err := e.AdvanceEpochIdem(context.Background(), s.id, "e-1")
	if err != nil || !replayed || ep2 != ep1 {
		t.Fatalf("retried advance: epoch %d (want %d), replayed %t, err %v", ep2, ep1, replayed, err)
	}
	if got, _, err := e.AdvanceEpochIdem(context.Background(), s.id, ""); err != nil || got != ep1+1 {
		t.Fatalf("keyless advance after replay: epoch %d, want %d (err %v)", got, ep1+1, err)
	}
}

// TestIdempotencySurvivesRecovery is the durability half of the
// contract: keys committed before a shutdown replay the identical
// result after Recover on a fresh engine, because the keys ride in the
// journal records.
func TestIdempotencySurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 11, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	step1, _, err := e.StepIdem(context.Background(), s.id, "k-step")
	if err != nil {
		t.Fatal(err)
	}
	batch1, _, err := e.BatchStepIdem(context.Background(), s.id, 2, "k-batch")
	if err != nil {
		t.Fatal(err)
	}
	ep1, _, err := e.AdvanceEpochIdem(context.Background(), s.id, "k-epoch")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e2.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	step2, replayed, err := e2.StepIdem(context.Background(), s.id, "k-step")
	if err != nil || !replayed {
		t.Fatalf("recovered step replay: replayed %t, err %v", replayed, err)
	}
	sameStep(t, "recovered step", step2, step1)
	batch2, replayed, err := e2.BatchStepIdem(context.Background(), s.id, 2, "k-batch")
	if err != nil || !replayed || len(batch2) != len(batch1) {
		t.Fatalf("recovered batch replay: replayed %t, %d steps, err %v", replayed, len(batch2), err)
	}
	for i := range batch1 {
		sameStep(t, "recovered batch step", batch2[i], batch1[i])
	}
	ep2, replayed, err := e2.AdvanceEpochIdem(context.Background(), s.id, "k-epoch")
	if err != nil || !replayed || ep2 != ep1 {
		t.Fatalf("recovered epoch replay: epoch %d (want %d), replayed %t, err %v", ep2, ep1, replayed, err)
	}
	res, err := e2.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != len(batch1)+1 {
		t.Fatalf("recovery replays double-applied: %d iterations, want %d", res.Iterations, len(batch1)+1)
	}
	// Conflicts survive recovery too: the journaled request shape is
	// what the key is checked against.
	if _, _, err := e2.BatchStepIdem(context.Background(), s.id, 3, "k-batch"); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("recovered key reuse with different k: err %v, want ErrIdemConflict", err)
	}
}

func TestSweepKeyed(t *testing.T) {
	e := New(2)
	sc, _ := platformScenario("b")
	req := sweepRequest{Scenario: "b", Tiles: 4}
	args := SweepArgs{Scenario: sc, Opts: simOptions(req)}
	first, replayed, err := e.SweepKeyed(context.Background(), "sw-1", req.fingerprint(), args)
	if err != nil || replayed {
		t.Fatalf("first sweep: replayed %t, err %v", replayed, err)
	}
	again, replayed, err := e.SweepKeyed(context.Background(), "sw-1", req.fingerprint(), args)
	if err != nil || !replayed {
		t.Fatalf("retried sweep: replayed %t, err %v", replayed, err)
	}
	aj, _ := json.Marshal(again)
	fj, _ := json.Marshal(first)
	if string(aj) != string(fj) {
		t.Fatalf("replayed sweep differs:\n%s\nvs\n%s", aj, fj)
	}
	other := sweepRequest{Scenario: "b", Tiles: 6}
	if _, _, err := e.SweepKeyed(context.Background(), "sw-1", other.fingerprint(),
		SweepArgs{Scenario: sc, Opts: simOptions(other)}); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("sweep key reuse with different request: err %v, want ErrIdemConflict", err)
	}
}

func TestValidateIdemKey(t *testing.T) {
	for _, ok := range []string{"", "a", "client-7:op-123", strings.Repeat("x", 128)} {
		if err := ValidateIdemKey(ok); err != nil {
			t.Fatalf("key %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{strings.Repeat("x", 129), "sp ace", "new\nline", "nul\x00", "high\x80"} {
		if err := ValidateIdemKey(bad); err == nil {
			t.Fatalf("key %q accepted", bad)
		}
	}
}

// TestRetryAfterJitterBounds pins the jittered backpressure hint:
// every value inside [retryAfterMin, retryAfterMax], and enough spread
// that a rejected fleet does not retry in lockstep.
func TestRetryAfterJitterBounds(t *testing.T) {
	s := NewServerWithOptions(New(1), ServerOptions{})
	seen := map[int]bool{}
	for i := 0; i < 256; i++ {
		v := s.retryAfterSeconds()
		if v < retryAfterMin || v > retryAfterMax {
			t.Fatalf("draw %d: Retry-After %d outside [%d, %d]", i, v, retryAfterMin, retryAfterMax)
		}
		seen[v] = true
	}
	if len(seen) < 2 {
		t.Fatalf("256 draws produced a single value %v: no jitter", seen)
	}
}

// TestHTTPIdempotencyKey covers the HTTP surface of the idempotency
// contract: byte-identical replayed bodies, the Idempotency-Replayed
// marker, 400 on malformed keys, and 409 on key reuse.
func TestHTTPIdempotencyKey(t *testing.T) {
	e := NewWithOptions(Options{Workers: 2, JournalDir: t.TempDir()})
	defer func() {
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	srv := httptest.NewServer(NewServerWithOptions(e, ServerOptions{}))
	defer srv.Close()

	post := func(path, key, body string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(b)
	}

	resp, body := post("/v1/sessions", "", `{"scenario":"b","strategy":"DC","seed":2,"tiles":4}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created createSessionResponse
	if err := json.Unmarshal([]byte(body), &created); err != nil {
		t.Fatal(err)
	}

	resp1, body1 := post("/v1/sessions/"+created.ID+"/step", "h-1", "{}")
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first step: status %d, replayed header %q", resp1.StatusCode, resp1.Header.Get("Idempotency-Replayed"))
	}
	resp2, body2 := post("/v1/sessions/"+created.ID+"/step", "h-1", "{}")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retried step: status %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("retried step not marked Idempotency-Replayed")
	}
	if body2 != body1 {
		t.Fatalf("replayed body differs:\n%s\nvs\n%s", body2, body1)
	}

	// Key reuse across operations is a 409.
	resp3, _ := post("/v1/sessions/"+created.ID+"/batch-step", "h-1", `{"k":2}`)
	if resp3.StatusCode != http.StatusConflict {
		t.Fatalf("key reuse: status %d, want 409", resp3.StatusCode)
	}
	// Malformed keys are a 400 before any work happens.
	resp4, _ := post("/v1/sessions/"+created.ID+"/step", strings.Repeat("k", 200), "{}")
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized key: status %d, want 400", resp4.StatusCode)
	}
}

// TestReadyzStates pins the readiness lifecycle: "starting" (recovery
// in progress) blocks the /v1 surface with 503 + Retry-After, ready
// serves, and "draining" flips /readyz while /v1 keeps serving so
// admitted work can finish. Reasons are machine-readable JSON.
func TestReadyzStates(t *testing.T) {
	e := New(1)
	s := NewServerWithOptions(e, ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	readyz := func() (int, map[string]any, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, m, resp.Header.Get("Retry-After")
	}

	s.SetStarting()
	code, m, retryAfter := readyz()
	if code != http.StatusServiceUnavailable || m["status"] != "starting" {
		t.Fatalf("starting readyz: %d %v", code, m)
	}
	if reason, _ := m["reason"].(string); !strings.Contains(reason, "recovery") {
		t.Fatalf("starting reason %q does not name recovery", m["reason"])
	}
	if retryAfter == "" {
		t.Fatal("starting readyz without Retry-After")
	}
	// The API surface is blocked while starting.
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"b","tiles":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1 while starting: status %d, want 503", resp.StatusCode)
	}

	s.SetReady()
	if code, m, _ := readyz(); code != http.StatusOK || m["status"] != "ready" {
		t.Fatalf("ready readyz: %d %v", code, m)
	}

	s.SetDraining(true)
	code, m, retryAfter = readyz()
	if code != http.StatusServiceUnavailable || m["status"] != "draining" {
		t.Fatalf("draining readyz: %d %v", code, m)
	}
	if reason, _ := m["reason"].(string); !strings.Contains(reason, "shutdown") {
		t.Fatalf("draining reason %q does not name shutdown", m["reason"])
	}
	if retryAfter == "" {
		t.Fatal("draining readyz without Retry-After")
	}
	// Draining keeps serving the API: in-flight and straggler work
	// finishes instead of erroring.
	resp, err = http.Post(srv.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"scenario":"b","strategy":"DC","tiles":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("/v1 while draining: status %d, want 201", resp.StatusCode)
	}
}
