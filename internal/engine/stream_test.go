package engine

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// streamSteps drives one streaming batch, collecting the delivered
// steps, and fails the test on error.
func streamSteps(t *testing.T, e *Engine, id string, k int, key string) []StepResult {
	t.Helper()
	var out []StepResult
	n, _, err := e.StreamBatchStepIdem(context.Background(), id, k, key, nil,
		func(res StepResult) { out = append(out, res) })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(out) {
		t.Fatalf("stream reported %d steps, delivered %d", n, len(out))
	}
	return out
}

// streamScript mirrors stepScript with every batch-step replaced by a
// streaming batch of the same width.
func streamScript(t *testing.T, e *Engine, id string) SessionResult {
	t.Helper()
	if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	streamSteps(t, e, id, 3, "")
	if _, _, err := e.AdvanceEpochIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	streamSteps(t, e, id, 2, "")
	res, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestStreamMatchesBatchByteIdentical: streaming commit preserves the
// observation-log guarantee — a streamed session reproduces a
// batch-stepped session bit-for-bit, because steps commit in proposal
// order either way. Checked at 1 and 4 workers.
func TestStreamMatchesBatchByteIdentical(t *testing.T) {
	for _, workers := range []int{1, 4} {
		eb := New(workers)
		sb, err := eb.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4})
		if err != nil {
			t.Fatal(err)
		}
		batchRes := stepScript(t, eb, sb.id)

		es := New(workers)
		ss, err := es.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4})
		if err != nil {
			t.Fatal(err)
		}
		streamRes := streamScript(t, es, ss.id)
		sameResult(t, "stream vs batch", batchRes, streamRes)
	}
}

// TestStreamDeliveryOrder: steps arrive in iteration order with
// contiguous iters, regardless of evaluation completion order.
func TestStreamDeliveryOrder(t *testing.T) {
	e := New(4)
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	steps := streamSteps(t, e, s.id, 5, "")
	for i, r := range steps {
		if r.Iter != i {
			t.Fatalf("step %d delivered iter %d", i, r.Iter)
		}
	}
}

// TestStreamIdempotentReplay: a key that committed a stream replays the
// identical steps (with replayed=true) instead of re-proposing; reusing
// it with a different width is a conflict.
func TestStreamIdempotentReplay(t *testing.T) {
	e := NewWithOptions(Options{Workers: 2, JournalDir: t.TempDir()})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 5, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	first := streamSteps(t, e, s.id, 3, "key-1")

	var second []StepResult
	var replayedAtStart bool
	n, replayed, err := e.StreamBatchStepIdem(context.Background(), s.id, 3, "key-1",
		func(rep bool) { replayedAtStart = rep },
		func(res StepResult) { second = append(second, res) })
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || !replayedAtStart {
		t.Fatalf("replay not reported (replayed=%v onStart=%v)", replayed, replayedAtStart)
	}
	if n != len(first) {
		t.Fatalf("replayed %d steps, committed %d", n, len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("step %d: %+v replayed as %+v", i, first[i], second[i])
		}
	}

	if _, _, err := e.StreamBatchStepIdem(context.Background(), s.id, 4, "key-1", nil, func(StepResult) {}); err == nil {
		t.Fatal("k=4 reuse of a k=3 key succeeded")
	}
}

// TestStreamRecoverBitIdentical: a crash after a streamed batch recovers
// the session bit-identically (spropose + scommit replay), the idem
// registry survives, and the recovered session continues exactly like
// the uninterrupted one.
func TestStreamRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 4, JournalDir: dir})
	s, err := live.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	streamed := streamSteps(t, live, s.id, 3, "stream-key")
	before, err := live.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recovered stream state", before, after)

	// The recovered idempotency registry replays the streamed steps.
	var replayedSteps []StepResult
	_, replayed, err := rec.StreamBatchStepIdem(context.Background(), s.id, 3, "stream-key", nil,
		func(res StepResult) { replayedSteps = append(replayedSteps, res) })
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || len(replayedSteps) != len(streamed) {
		t.Fatalf("recovered replay: replayed=%v steps=%d want %d", replayed, len(replayedSteps), len(streamed))
	}
	for i := range streamed {
		if streamed[i] != replayedSteps[i] {
			t.Fatalf("recovered step %d: %+v vs %+v", i, streamed[i], replayedSteps[i])
		}
	}

	// Both engines continue identically (batch lies peek at the cache,
	// so this also checks the recovered cache priming).
	for _, e := range []*Engine{live, rec} {
		if _, _, err := e.BatchStepIdem(context.Background(), s.id, 2, ""); err != nil {
			t.Fatal(err)
		}
	}
	liveRes, _ := live.Result(s.id)
	recRes, _ := rec.Result(s.id)
	sameResult(t, "continued after stream", liveRes, recRes)
}

// TestStreamRecoverPartial: a crash mid-stream (spropose durable, only a
// prefix of scommits) recovers the committed prefix, consumes all
// journaled proposals, registers the key for the prefix, and keeps
// serving.
func TestStreamRecoverPartial(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	s, err := live.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	// One observation first: a constant-liar batch on a fresh session
	// stops after one proposal (no mean to lie with), and this test
	// needs a full-width stream.
	if _, _, err := live.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	streamed := streamSteps(t, live, s.id, 3, "part-key")
	if len(streamed) != 3 {
		t.Fatalf("streamed %d steps, want 3", len(streamed))
	}

	// Simulate the crash window: drop the final scommit line from the
	// journal, as if the process died between the second and third
	// commits.
	path := journalPath(dir, s.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"t":"scommit"`) {
		t.Fatalf("unexpected final journal line %q", last)
	}
	trimmed := strings.Join(lines[:len(lines)-1], "\n") + "\n"
	if err := os.WriteFile(path, []byte(trimmed), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	res, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 3 {
		t.Fatalf("recovered %d iterations, want step + 2 committed stream steps", res.Iterations)
	}
	var replayedSteps []StepResult
	_, replayed, err := rec.StreamBatchStepIdem(context.Background(), s.id, 3, "part-key", nil,
		func(r StepResult) { replayedSteps = append(replayedSteps, r) })
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || len(replayedSteps) != 2 {
		t.Fatalf("partial key: replayed=%v steps=%d want 2", replayed, len(replayedSteps))
	}
	// The un-committed third proposal was still consumed by the replay
	// (spropose semantics), so the session keeps serving consistently.
	if _, _, err := rec.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
}

// TestClientAssignedSessionID: clients mint ids and the engine must
// honor them — a duplicate replays the live session or, with another
// config, conflicts; invalid ids are rejected, and engine-minted ids
// skip claimed ones.
func TestClientAssignedSessionID(t *testing.T) {
	e := New(1)
	cfg := SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 1, Tiles: 4}

	cfg.ID = "r00deadbeef"
	s, err := e.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.id != "r00deadbeef" {
		t.Fatalf("got id %q", s.id)
	}
	if again, err := e.CreateSession(cfg); err != nil || again != s {
		t.Fatalf("duplicate with the same config: %v, want the live session", err)
	}
	other := cfg
	other.Seed = 2
	if _, err := e.CreateSession(other); !errors.Is(err, ErrIdemConflict) {
		t.Fatalf("duplicate with another config: %v, want ErrIdemConflict", err)
	}
	for _, bad := range []string{"a/b", "..", ".hidden", strings.Repeat("x", 65), "sp ace", "nul\x00"} {
		cfg.ID = bad
		if _, err := e.CreateSession(cfg); err == nil {
			t.Fatalf("id %q accepted", bad)
		}
	}

	// A claimed "s<n>" id never collides with engine minting.
	cfg.ID = "s1"
	if _, err := e.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.ID = ""
	s2, err := e.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.id == "s1" {
		t.Fatal("engine re-minted a claimed id")
	}
}

// TestStreamStepHTTP: the ndjson route streams one line per committed
// step plus a terminal done line, and the steps equal a batch-stepped
// twin session's bit-for-bit.
func TestStreamStepHTTP(t *testing.T) {
	// Two separate engines so the twins see identical cache states (a
	// shared cache would let the first twin's evaluations change the
	// second's constant-liar hints).
	srvStream := httptest.NewServer(NewServer(New(2)))
	defer srvStream.Close()
	srvBatch := httptest.NewServer(NewServer(New(2)))
	defer srvBatch.Close()

	mk := func(base, id string) {
		body := strings.NewReader(`{"id":"` + id + `","scenario":"b","strategy":"GP-discontinuous","seed":11,"tiles":4}`)
		resp, err := http.Post(base+"/v1/sessions", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d", id, resp.StatusCode)
		}
		// One sequential step so the k=3 batch below proposes full-width.
		sresp, err := http.Post(base+"/v1/sessions/"+id+"/step", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			t.Fatalf("step %s: %d", id, sresp.StatusCode)
		}
	}
	mk(srvStream.URL, "twin")
	mk(srvBatch.URL, "twin")

	resp, err := http.Post(srvStream.URL+"/v1/sessions/twin/stream-step", "application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream-step status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var streamed []StepResult
	done := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done  *bool   `json:"done"`
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad ndjson line %q: %v", line, err)
		}
		switch {
		case probe.Error != nil:
			t.Fatalf("in-band stream error: %s", *probe.Error)
		case probe.Done != nil:
			done = true
		default:
			var r StepResult
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, r)
		}
	}
	if !done {
		t.Fatal("stream ended without a done line")
	}

	var batch batchStepResponse
	bresp, err := http.Post(srvBatch.URL+"/v1/sessions/twin/batch-step", "application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bresp.Body.Close()
	if err := json.NewDecoder(bresp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch.Steps) {
		t.Fatalf("streamed %d steps, batch %d", len(streamed), len(batch.Steps))
	}
	for i := range streamed {
		// CacheHit is warmth-and-timing observability (two concurrent
		// evaluations of one action race between a miss that computes and
		// a hit on the committed value); the tuning contract is the rest.
		a, b := streamed[i], batch.Steps[i]
		a.CacheHit, b.CacheHit = false, false
		if a != b {
			t.Fatalf("step %d: stream %+v vs batch %+v", i, streamed[i], batch.Steps[i])
		}
	}
}
