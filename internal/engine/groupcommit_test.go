package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"phasetune/internal/obsv"
)

// Group commit: a stream-step journals and ships its records in groups
// (see commit.go). These tests pin the windows that opens: how many
// appends and ships a stream costs, a crash inside one multi-record
// group, the HTTP answer of a stream that fails before or after its
// first group, and the follower's copy of a grouped history.

// primeCache caches every action of a session's fingerprint at epoch
// 0, so each of its proposals has landed the moment it is made.
func primeCache(t *testing.T, e *Engine, id string) {
	t.Helper()
	s, ok := e.Session(id)
	if !ok {
		t.Fatalf("no session %q", id)
	}
	for _, a := range s.ev.Actions() {
		v, err := s.ev.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		e.cache.Prime(CacheKey{Fingerprint: s.ev.Fingerprint(), Action: a}, v)
	}
}

// primeFirst caches on e the first proposal a fresh session of cfg
// makes, learned from a twin engine, and returns the twin's step. The
// cached value then serves a fresh session as its constant-liar lie,
// so a stream proposes a second, uncached action after it.
func primeFirst(t *testing.T, e *Engine, cfg SessionConfig) StepResult {
	t.Helper()
	twin := New(1)
	ts, err := twin.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := streamSteps(t, twin, ts.id, 1, "")[0]
	e.cache.Prime(CacheKey{Fingerprint: ts.ev.Fingerprint(), Action: first.Action}, first.Sim)
	return first
}

// holdsScommit reports whether the log at path holds the scommit
// record of iteration iter.
func holdsScommit(t *testing.T, path string, iter int) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec.T == "scommit" && rec.Iter == iter {
			return true
		}
	}
	return false
}

// ackedStream runs one stream-step on e and fails the test if a step
// is delivered before the follower's replica at replicaPath holds it.
func ackedStream(t *testing.T, e *Engine, id string, k int, key, replicaPath string) []StepResult {
	t.Helper()
	var out []StepResult
	_, _, err := e.StreamBatchStepIdem(context.Background(), id, k, key, nil, func(res StepResult) {
		if !holdsScommit(t, replicaPath, res.Iter) {
			t.Errorf("step %d delivered before the follower held it", res.Iter)
		}
		out = append(out, res)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamGroupOneAppendOneShip: a stream whose proposals are all
// cached lands whole before its first commit, so it costs exactly one
// local append (one fsync) and one accepted replica batch, whatever
// the worker count, and no step is delivered before the follower holds
// it.
func TestStreamGroupOneAppendOneShip(t *testing.T) {
	ftel := obsv.NewTelemetry(nil)
	follower := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir(), Telemetry: ftel})
	fsrv := httptest.NewServer(NewServer(follower))
	t.Cleanup(fsrv.Close)

	tel := obsv.NewTelemetry(nil)
	dir := t.TempDir()
	owner := NewWithOptions(Options{Workers: 4, JournalDir: dir, Telemetry: tel})
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	s, err := owner.CreateSession(SessionConfig{ID: "group1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 9, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	primeCache(t, owner, s.id)

	appends, accepts := tel.JournalAppend.Count(), follower.replAccepts.Value()
	records := len(journalRecords(t, dir, s.id))
	steps := ackedStream(t, owner, s.id, 4, "one-group", journalPath(follower.replicas.dir, s.id))
	if len(steps) != 4 {
		t.Fatalf("streamed %d steps, want 4", len(steps))
	}
	if n := tel.JournalAppend.Count() - appends; n != 1 {
		t.Fatalf("all-cached stream made %d journal appends, want 1", n)
	}
	if n := follower.replAccepts.Value() - accepts; n != 1 {
		t.Fatalf("all-cached stream shipped %v accepted replica batches, want 1", n)
	}
	recs := journalRecords(t, dir, s.id)[records:]
	if len(recs) != 5 || recs[0].T != "spropose" {
		t.Fatalf("stream journaled %d records starting %q, want spropose + 4 scommit", len(recs), recs[0].T)
	}
	for i, rec := range recs[1:] {
		if rec.T != "scommit" || rec.Iter != steps[i].Iter {
			t.Fatalf("record %d: %q iter %d, want scommit iter %d", i+1, rec.T, rec.Iter, steps[i].Iter)
		}
	}
}

// TestStreamGroupTornRecover: a crash inside one multi-record group
// leaves a journal that ends mid-record. Recovery keeps the intact
// prefix (spropose and the first scommit), and the stream's key
// replays exactly that prefix.
func TestStreamGroupTornRecover(t *testing.T) {
	dir := t.TempDir()
	tel := obsv.NewTelemetry(nil)
	live := NewWithOptions(Options{Workers: 2, JournalDir: dir, Telemetry: tel})
	s, err := live.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 4, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	primeCache(t, live, s.id)
	appends := tel.JournalAppend.Count()
	streamed := streamSteps(t, live, s.id, 4, "torn-key")
	if n := tel.JournalAppend.Count() - appends; n != 1 || len(streamed) != 4 {
		t.Fatalf("stream wrote %d steps in %d appends; the cut below needs 4 in one", len(streamed), n)
	}

	// The group is the last five lines: spropose and four scommits.
	// Keep spropose, the first scommit and half of the second, as a
	// crash during the group's write would leave them.
	path := journalPath(dir, s.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	n := len(lines)
	if !bytes.Contains(lines[n-5], []byte(`"t":"spropose"`)) {
		t.Fatalf("line %q does not open the group", lines[n-5])
	}
	cut := bytes.Join(lines[:n-3], nil)
	cut = append(cut, lines[n-3][:len(lines[n-3])/2]...)
	if err := os.WriteFile(path, cut, 0o644); err != nil {
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
	if res.Iterations != 2 {
		t.Fatalf("recovered %d iterations, want the step and the first stream step", res.Iterations)
	}
	var replayedSteps []StepResult
	_, replayed, err := rec.StreamBatchStepIdem(context.Background(), s.id, 4, "torn-key", nil,
		func(r StepResult) { replayedSteps = append(replayedSteps, r) })
	if err != nil {
		t.Fatal(err)
	}
	if !replayed || len(replayedSteps) != 1 || replayedSteps[0] != streamed[0] {
		t.Fatalf("torn group key: replayed=%v steps %+v, want the first streamed step %+v", replayed, replayedSteps, streamed[0])
	}

	// The torn tail was cut, so the next commit starts on a line of its
	// own and a second recovery reads the continued session back.
	if _, _, err := rec.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	want, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	again := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := again.Recover(); err != nil {
		t.Fatal(err)
	}
	got, err := again.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "second recovery", want, got)
}

// postStream posts one stream-step and returns the response and the
// JSON values of its body: the ndjson lines of a stream, or the one
// value of a JSON error.
func postStream(t *testing.T, url string, k int) (*http.Response, []map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(`{"k":`+strconv.Itoa(k)+`}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vals []map[string]any
	dec := json.NewDecoder(resp.Body)
	for {
		var m map[string]any
		if err := dec.Decode(&m); errors.Is(err, io.EOF) {
			return resp, vals
		} else if err != nil {
			t.Fatalf("bad response body: %v", err)
		}
		vals = append(vals, m)
	}
}

// TestStreamGroupHTTPFailures: the 200 goes out with the first durable
// group. A stream whose first evaluation fails commits nothing, so it
// answers with a JSON error status, as batch-step does, and journals
// only its spropose record; a stream that fails after a committed
// group still answers 200 with the prefix and then the in-band error.
func TestStreamGroupHTTPFailures(t *testing.T) {
	cfg := SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 6, Tiles: 4}
	setup := func(t *testing.T) (*Engine, string, string, string) {
		dir := t.TempDir()
		e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
		srv := httptest.NewServer(NewServerWithOptions(e, ServerOptions{EvalTimeout: 50 * time.Millisecond}))
		t.Cleanup(srv.Close)
		s, err := e.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return e, dir, s.id, srv.URL + "/v1/sessions/" + s.id + "/stream-step"
	}

	t.Run("first-evaluation", func(t *testing.T) {
		e, dir, id, url := setup(t)
		// A fresh session proposes one action (no mean to lie with), and
		// nothing is cached: it waits on the saturated pool and fails.
		release := saturatePool(t, e)
		started := false
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		n, _, err := e.StreamBatchStepIdem(ctx, id, 3, "", func(bool) { started = true }, nil)
		if err == nil || n != 0 || started {
			t.Fatalf("cancelled stream: %d steps, onStart fired %v, err %v; want an error before onStart", n, started, err)
		}
		resp, vals := postStream(t, url, 3)
		release()
		if resp.StatusCode != http.StatusGatewayTimeout || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("timed-out stream: status %d, content type %q; want a 504 JSON error",
				resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if len(vals) != 1 || vals[0]["error"] == nil {
			t.Fatalf("timed-out stream body %v, want one JSON error", vals)
		}
		recs := journalRecords(t, dir, id)
		if len(recs) != 3 || recs[1].T != "spropose" || recs[2].T != "spropose" {
			t.Fatalf("failed streams journaled %+v, want one spropose each", recs[1:])
		}
		if res, err := e.Result(id); err != nil || res.Iterations != 0 {
			t.Fatalf("failed streams committed steps: %+v, %v", res, err)
		}
	})

	t.Run("after-a-group", func(t *testing.T) {
		e, dir, id, url := setup(t)
		// The first proposal lands at once; the second fails at the
		// saturated pool.
		first := primeFirst(t, e, cfg)
		release := saturatePool(t, e)
		resp, vals := postStream(t, url, 3)
		release()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
			t.Fatalf("stream status %d, content type %q; want a 200 ndjson stream",
				resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if len(vals) < 2 || vals[0]["action"] != float64(first.Action) {
			t.Fatalf("stream values %v, want the cached step first", vals)
		}
		steps := len(vals) - 1
		last := vals[steps]
		if last["error"] == nil || last["status"] != float64(http.StatusGatewayTimeout) || last["steps"] != float64(steps) {
			t.Fatalf("stream ended with %v, want the in-band 504 after %d steps", last, steps)
		}
		recs := journalRecords(t, dir, id)
		if len(recs) != 2+steps || recs[1].T != "spropose" {
			t.Fatalf("stream journaled %+v, want spropose + %d scommit", recs[1:], steps)
		}
		if res, err := e.Result(id); err != nil || res.Iterations != steps {
			t.Fatalf("stream committed %+v, %v; want %d steps", res, err, steps)
		}
	})
}

// TestStreamGroupLandedFirst: a landed step never waits for a running
// one. The first proposal is cached and the second waits for a slot of
// a saturated pool; the first step is delivered while the second still
// waits, so cancelling from its delivery ends the wait at once.
func TestStreamGroupLandedFirst(t *testing.T) {
	cfg := SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 6, Tiles: 4}
	e := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	s, err := e.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := primeFirst(t, e, cfg)
	release := saturatePool(t, e)
	defer release()
	// The deadline only bounds a failure: were the first step held back
	// until the second proposal gave up, it would end the stream.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var got []StepResult
	n, _, err := e.StreamBatchStepIdem(ctx, s.id, 3, "", nil, func(r StepResult) {
		got = append(got, r)
		cancel()
	})
	if n != 1 || len(got) != 1 || got[0].Action != first.Action || !errors.Is(err, context.Canceled) {
		t.Fatalf("stream delivered %d steps %+v, err %v; want the cached step, then the cancelled wait", n, got, err)
	}
}

// TestStreamGroupFollowerCopy: the follower's replica of a session
// written in groups, mixed with steps, batches, an epoch advance and a
// replayed key, equals the owner's journal byte for byte; every
// streamed step reached the follower before it was delivered, and the
// promoted replica continues bit-identically.
func TestStreamGroupFollowerCopy(t *testing.T) {
	follower, fsrv := newFollower(t, 2)
	dir := t.TempDir()
	owner := NewWithOptions(Options{Workers: 4, JournalDir: dir})
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	cfg := SessionConfig{ID: "copy1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4}
	s, err := owner.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	replica := journalPath(follower.replicas.dir, s.id)
	ctx := context.Background()
	if _, _, err := owner.StepIdem(ctx, s.id, ""); err != nil {
		t.Fatal(err)
	}
	ackedStream(t, owner, s.id, 3, "", replica)
	if _, _, err := owner.BatchStepIdem(ctx, s.id, 2, ""); err != nil {
		t.Fatal(err)
	}
	primeCache(t, owner, s.id)
	keyed := ackedStream(t, owner, s.id, 4, "copy-key", replica)
	if again := ackedStream(t, owner, s.id, 4, "copy-key", replica); len(again) != len(keyed) {
		t.Fatalf("replayed %d steps, committed %d", len(again), len(keyed))
	}
	if _, _, err := owner.AdvanceEpochIdem(ctx, s.id, ""); err != nil {
		t.Fatal(err)
	}
	ackedStream(t, owner, s.id, 2, "", replica)
	before, err := owner.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	ownerLog, err := os.ReadFile(journalPath(dir, s.id))
	if err != nil {
		t.Fatal(err)
	}
	replicaLog, err := os.ReadFile(replica)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ownerLog, replicaLog) {
		t.Fatalf("replica differs from the owner's journal:\nowner:\n%s\nreplica:\n%s", ownerLog, replicaLog)
	}

	// Promote as if the owner died. The owner, cut off from its
	// follower, stands for the session had it lived.
	owner.SetReplicaPlanner(nil)
	if _, err := follower.PromoteReplica(ctx, s.id, 2); err != nil {
		t.Fatal(err)
	}
	got, err := follower.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "promoted vs owner", got, before)
	for _, e := range []*Engine{owner, follower} {
		streamSteps(t, e, s.id, 3, "")
		if _, _, err := e.StepIdem(ctx, s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	ownerRes, _ := owner.Result(s.id)
	promotedRes, _ := follower.Result(s.id)
	sameResult(t, "continued after promotion", promotedRes, ownerRes)
}
