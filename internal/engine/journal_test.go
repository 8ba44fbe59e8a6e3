package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// stepScript drives a session through a fixed mixed op sequence and
// returns the result. The sequence exercises sequential steps,
// speculative batches (whose lies depend on cache state) and an epoch
// advance.
func stepScript(t *testing.T, e *Engine, id string) SessionResult {
	t.Helper()
	if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BatchStepIdem(context.Background(), id, 3, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AdvanceEpochIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BatchStepIdem(context.Background(), id, 2, ""); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameResult(t *testing.T, tag string, a, b SessionResult) {
	t.Helper()
	if a.Iterations != b.Iterations || a.Epoch != b.Epoch {
		t.Fatalf("%s: iterations/epoch (%d, %d) vs (%d, %d)",
			tag, a.Iterations, a.Epoch, b.Iterations, b.Epoch)
	}
	for i := range a.Actions {
		if a.Actions[i] != b.Actions[i] {
			t.Fatalf("%s iter %d: action %d vs %d", tag, i, a.Actions[i], b.Actions[i])
		}
		if a.Durations[i] != b.Durations[i] {
			t.Fatalf("%s iter %d: duration %v vs %v (not bit-for-bit)",
				tag, i, a.Durations[i], b.Durations[i])
		}
	}
	if a.Total != b.Total || a.BestAction != b.BestAction ||
		a.BestSim != b.BestSim || a.Regret != b.Regret {
		t.Fatalf("%s: summary (%v, %d, %v, %v) vs (%v, %d, %v, %v)",
			tag, a.Total, a.BestAction, a.BestSim, a.Regret,
			b.Total, b.BestAction, b.BestSim, b.Regret)
	}
}

// TestRecoverBitIdentical is the durability invariant in-process: a
// journaled session abandoned without any shutdown (the crash model —
// only fsync'd bytes survive) recovers into a fresh engine with
// identical state, and the recovered session's further trajectory is
// bit-for-bit the trajectory the uninterrupted session produces.
func TestRecoverBitIdentical(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 4, JournalDir: dir, SnapshotEvery: 4})
	s, err := live.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, live, s.id)

	// "Crash": no Close, no flush. Recover from disk alone.
	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 4})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != s.id || infos[0].Epoch != 1 {
		t.Fatalf("recover infos %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recovered state", before, after)

	// Continue both engines with the same ops: batches draw constant-liar
	// hints from the cache, so this also proves the recovery rewarmed the
	// shared cache to the uninterrupted engine's view.
	for _, e := range []*Engine{live, rec} {
		if _, _, err := e.BatchStepIdem(context.Background(), s.id, 3, ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	liveRes, err := live.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	recRes, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "continued trajectory", liveRes, recRes)

	// A new session on the recovered engine picks a fresh ID.
	s2, err := rec.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 1, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s2.id == s.id {
		t.Fatalf("recovered engine reissued ID %s", s.id)
	}
}

// TestRecoverAfterGracefulClose: Close flushes a final snapshot, so
// recovery replays a zero-length journal tail.
func TestRecoverAfterGracefulClose(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 9, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, e, s.id)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.StepIdem(context.Background(), s.id, ""); err == nil {
		t.Fatal("step after Close should fail")
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ReplayedTail != 0 {
		t.Fatalf("after graceful close the journal tail must be empty: %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "graceful close", before, after)
}

// TestRecoverTornTail: a crash mid-append leaves a partial final line;
// recovery drops it (that op never committed) and keeps everything
// before it.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 100})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	jp := journalPath(dir, s.id)
	f, err := os.OpenFile(jp, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"step","seq":4,"epoch":0,"actions":[5],"si`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "torn tail", before, after)
}

// TestRecoverRemovesSnapshotTemps: a crash mid-rotation leaves the
// snapshot's temp file behind, and recovery removes it. Client-assigned
// ids may themselves contain ".tmp-"; such a session keeps its journal
// and snapshot.
func TestRecoverRemovesSnapshotTemps(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 2})
	ids := []string{"x", "x.tmp-1", "x.snap.json.tmp-1"}
	before := map[string]SessionResult{}
	for _, id := range ids {
		if _, err := e.CreateSession(SessionConfig{ID: id, ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
				t.Fatal(err)
			}
		}
		r, err := e.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = r
		if err := os.WriteFile(snapshotPath(dir, id)+".tmp-42", []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	got, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("recovered %d sessions, want %d", len(got), len(ids))
	}
	for _, id := range ids {
		after, err := rec.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, id, before[id], after)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	var want []string
	for _, id := range ids {
		want = append(want, filepath.Base(journalPath(dir, id)), filepath.Base(snapshotPath(dir, id)))
	}
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("journal dir after recovery:\n got %v\nwant %v", names, want)
	}
}

// TestRecoverCorruptMiddle: a malformed record that is not the tail is
// corruption, not a torn append — recovery must refuse.
func TestRecoverCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 100})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	jp := journalPath(dir, s.id)
	data, err := os.ReadFile(jp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[1] = "{garbage\n"
	if err := os.WriteFile(jp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	if _, err := rec.Recover(); err == nil {
		t.Fatal("corrupt middle record must fail recovery")
	}
}

// saturatePool occupies every slot of e's pool until the returned
// release runs, so an evaluation that misses the cache under a
// cancelled context fails at admission, deterministically.
func saturatePool(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < e.pool.Workers(); i++ {
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = e.pool.DoCtx(context.Background(), func() { close(started); <-block })
		}()
		<-started
	}
	return func() { close(block); wg.Wait() }
}

// journalRecords reads a session's live journal file (no snapshot
// rotation may have happened) as decoded records.
func journalRecords(t *testing.T, dir, id string) []journalRecord {
	t.Helper()
	data, err := os.ReadFile(journalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	var recs []journalRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRecoverAbortedStep: an evaluation failure consumes strategy
// proposals without committing observations, in both failure shapes.
// Step and batch-step are atomic: they commit nothing and journal one
// abort record. Stream-step journals its proposals before evaluating,
// so its spropose record alone carries the consumed proposals. Either
// way recovery replays the identical strategy state, and the recovered
// session continues exactly like the live one.
func TestRecoverAbortedStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   func(ctx context.Context, e *Engine, id string) error
		want string // the one record the failed operation journals
	}{
		{"step", func(ctx context.Context, e *Engine, id string) error {
			_, _, err := e.StepIdem(ctx, id, "")
			return err
		}, "abort"},
		{"batch-step", func(ctx context.Context, e *Engine, id string) error {
			_, _, err := e.BatchStepIdem(ctx, id, 3, "")
			return err
		}, "abort"},
		{"stream-step", func(ctx context.Context, e *Engine, id string) error {
			_, _, err := e.StreamBatchStepIdem(ctx, id, 3, "", nil, func(StepResult) {})
			return err
		}, "spropose"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 100})
			s, err := live.CreateSession(SessionConfig{
				ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 11, Tiles: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			bg := context.Background()
			if _, _, err := live.StepIdem(bg, s.id, ""); err != nil {
				t.Fatal(err)
			}

			// With every pool slot taken and the context cancelled, the
			// slot wait fails after the strategy already proposed.
			release := saturatePool(t, live)
			ctx, cancel := context.WithCancel(bg)
			cancel()
			opErr := tc.op(ctx, live, s.id)
			release()
			if opErr == nil {
				t.Fatal("operation with cancelled context under a saturated pool should fail")
			}
			if res, err := live.Result(s.id); err != nil || res.Iterations != 1 {
				t.Fatalf("failed operation committed steps: %+v, %v", res, err)
			}
			recs := journalRecords(t, dir, s.id)
			if len(recs) != 3 || recs[2].T != tc.want {
				t.Fatalf("failed operation journaled %+v, want one %q record", recs[2:], tc.want)
			}

			// Continue the live session past the failure.
			for i := 0; i < 2; i++ {
				if _, _, err := live.StepIdem(bg, s.id, ""); err != nil {
					t.Fatal(err)
				}
			}
			before, err := live.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}

			rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
			if _, err := rec.Recover(); err != nil {
				t.Fatal(err)
			}
			after, err := rec.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "post-failure", before, after)

			// And the recovered session keeps agreeing with the live one.
			for _, e := range []*Engine{live, rec} {
				if err := tc.op(bg, e, s.id); err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.StepIdem(bg, s.id, ""); err != nil {
					t.Fatal(err)
				}
			}
			liveRes, err := live.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}
			recRes, err := rec.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "post-failure continuation", liveRes, recRes)
		})
	}
}

// TestJournalGolden pins the journal format the commit path writes: a
// fixed script covering every operation record (step, keyed batch,
// keyed stream, an idempotent replay that must write nothing, a keyed
// epoch advance, an aborted step) must reproduce
// testdata/journal_golden.jsonl record for record. The per-step hits
// flags are left out: when one batch proposes an action twice, which
// evaluation computes and which shares it depends on goroutine timing.
func TestJournalGolden(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 100})
	s, err := e.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := e.StepIdem(ctx, s.id, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.BatchStepIdem(ctx, s.id, 3, "golden-batch"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.StreamBatchStepIdem(ctx, s.id, 3, "golden-stream", nil, func(StepResult) {}); err != nil {
		t.Fatal(err)
	}
	if _, replayed, err := e.BatchStepIdem(ctx, s.id, 3, "golden-batch"); err != nil || !replayed {
		t.Fatalf("batch replay: replayed=%t, err %v", replayed, err)
	}
	if _, _, err := e.AdvanceEpochIdem(ctx, s.id, "golden-epoch"); err != nil {
		t.Fatal(err)
	}
	// The epoch advance emptied this fingerprint's cache, so the next
	// proposal misses and fails at the saturated pool.
	release := saturatePool(t, e)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	_, _, stepErr := e.StepIdem(cancelled, s.id, "")
	release()
	if stepErr == nil {
		t.Fatal("step with cancelled context under a saturated pool should fail")
	}
	if _, _, err := e.StepIdem(ctx, s.id, ""); err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	for _, rec := range journalRecords(t, dir, s.id) {
		rec.Hits = nil
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(append(line, '\n'))
	}
	want, err := os.ReadFile(filepath.Join("testdata", "journal_golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("journal records differ from testdata/journal_golden.jsonl:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestSnapshotRotation: the journal is compacted every SnapshotEvery
// ops — the snapshot exists, the live journal holds at most the tail,
// and recovery still reproduces the session exactly.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 2})
	s, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "DC", Seed: 5, Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(snapshotPath(dir, s.id)); err != nil {
		t.Fatalf("snapshot missing after rotation: %v", err)
	}
	data, err := os.ReadFile(journalPath(dir, s.id))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n >= 5 {
		t.Fatalf("journal not truncated by rotation: %d records", n)
	}

	rec := NewWithOptions(Options{Workers: 2, JournalDir: dir})
	infos, err := rec.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ReplayedTail != 1 {
		t.Fatalf("want a 1-op tail after 5 ops at cadence 2: %+v", infos)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "rotated", before, after)
}

// TestRecoverRequirements: recovery needs journaling and an empty
// engine; explicit scenarios are rejected up front when journaling.
func TestRecoverRequirements(t *testing.T) {
	if _, err := New(1).Recover(); err == nil {
		t.Fatal("Recover without a journal dir must fail")
	}

	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Tiles: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err == nil {
		t.Fatal("Recover on a non-empty engine must fail")
	}

	sc, ok := platformScenario("b")
	if !ok {
		t.Fatal("scenario b missing")
	}
	if _, err := e.CreateSession(SessionConfig{Scenario: &sc, Tiles: 4}); err == nil {
		t.Fatal("explicit scenario must be rejected when journaling")
	}

	// A journal file for a session whose config names a bogus scenario
	// must fail recovery loudly.
	bogus := filepath.Join(dir, "s9.journal")
	if err := os.WriteFile(bogus, []byte(`{"t":"create","config":{"scenario_key":"zz","strategy":"DC"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	if _, err := rec.Recover(); err == nil {
		t.Fatal("unknown scenario key in journal must fail recovery")
	}
}
