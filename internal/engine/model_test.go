package engine

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// legacyConfig is the config of the model-1 sessions below.
var legacyConfig = journalConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4}

// model2Config is the config of the model-2 sessions below.
var model2Config = journalConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4, Model: 2}

// writeLegacyJournal writes the journal that a binary from before
// strategy model 2 started for session id: one create record, format
// v2, naming no model.
func writeLegacyJournal(t *testing.T, dir, id string, cfg journalConfig) {
	t.Helper()
	writeCreateRecord(t, dir, id, 2, cfg)
}

// writeCreateRecord writes a journal for session id holding one create
// record of format v with config cfg.
func writeCreateRecord(t *testing.T, dir, id string, v int, cfg journalConfig) {
	t.Helper()
	if err := appendRecords(dir, id, []journalRecord{{T: "create", V: v, Gen: 1, Config: &cfg}}); err != nil {
		t.Fatal(err)
	}
}

// recoverLegacy restores, on a fresh journaled engine over dir, the
// sessions of the journals an earlier binary wrote there.
func recoverLegacy(t *testing.T, dir string) *Engine {
	t.Helper()
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	t.Cleanup(func() { _ = e.Close() })
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	return e
}

// strategyDigest digests the bits of a GP strategy's latest posterior.
func strategyDigest(g *core.GPStrategy) string {
	return posteriorDigest(latestPosterior(g))
}

// sessionDigest digests the latest posterior of a GP-discontinuous
// session.
func sessionDigest(t *testing.T, e *Engine, id string) string {
	t.Helper()
	s, ok := e.Session(id)
	if !ok {
		t.Fatalf("no session %q", id)
	}
	s.driver.mu.Lock()
	defer s.driver.mu.Unlock()
	return strategyDigest(s.driver.s.(*core.GPStrategy))
}

// restoredDigests restores session id from a journal holding one
// create record of format v with config cfg, steps it sixteen times,
// and replays its history on each reference strategy, which must
// propose the same actions. It returns the digests of the session's
// latest posterior and of each reference's, and the engine.
func restoredDigests(t *testing.T, id string, v int, cfg journalConfig, refs ...*core.GPStrategy) (*Engine, string, []string) {
	t.Helper()
	dir := t.TempDir()
	writeCreateRecord(t, dir, id, v, cfg)
	e := recoverLegacy(t, dir)
	for i := 0; i < 16; i++ {
		if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, ref := range refs {
		for i, a := range res.Actions {
			if got := ref.Next(); got != a {
				t.Fatalf("reference proposed %d at step %d, the session %d", got, i, a)
			}
			ref.Observe(a, res.Durations[i])
		}
		want = append(want, strategyDigest(ref))
	}
	return e, sessionDigest(t, e, id), want
}

// scenarioContext is the strategy context of testScenario's sessions
// under an LP bound.
func scenarioContext(t *testing.T, bound func(platform.Scenario, harness.SimOptions) (func(int) float64, error)) core.Context {
	t.Helper()
	sc, opts := testScenario(t)
	lpf, err := bound(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	return core.Context{N: sc.Platform.N(), Min: sc.MinNodes, GroupSizes: sc.Platform.GroupSizes(), LP: lpf}
}

// TestRestoredLegacySessionRunsModel1: a session restored from a journal
// that names no model keeps model 1 for the rest of its life. After
// sixteen live steps its posterior is bit for bit that of a model-1
// strategy (simplex bound, fit on every entry) fed the same history, and
// not that of model 2; its bound came through the engine's memo.
func TestRestoredLegacySessionRunsModel1(t *testing.T) {
	e, got, want := restoredDigests(t, "leg", 2, legacyConfig,
		core.NewGPDiscontinuousModel1(scenarioContext(t, harness.SimplexLPBound)),
		core.NewGPDiscontinuousModel2(scenarioContext(t, harness.LPBound)))
	if want[0] == want[1] {
		t.Fatalf("both models end at posterior %s; the history cannot tell them apart", want[0])
	}
	if got != want[0] {
		t.Fatalf("restored legacy session's posterior %s, model 1's %s, model 2's %s", got, want[0], want[1])
	}
	if n := len(e.lp.entries); n != 1 {
		t.Fatalf("LP memo holds %d fingerprints, want the legacy session's 1", n)
	}
}

// TestRestoredModel2SessionStaysModel2: a session restored from a
// journal that names model 2 keeps model 2 for the rest of its life.
// After sixteen live steps its posterior is bit for bit that of a
// model-2 strategy fed the same history, and not that of model 3, the
// model a fresh session gets; its bound was solved in closed form.
func TestRestoredModel2SessionStaysModel2(t *testing.T) {
	ctx := scenarioContext(t, harness.LPBound)
	e, got, want := restoredDigests(t, "m2", journalFormatVersion, model2Config,
		core.NewGPDiscontinuousModel2(ctx), core.NewGPDiscontinuous(ctx, core.GPOptions{}))
	if want[0] == want[1] {
		t.Fatalf("both models end at posterior %s; the history cannot tell them apart", want[0])
	}
	if got != want[0] {
		t.Fatalf("restored model-2 session's posterior %s, model 2's %s, model 3's %s", got, want[0], want[1])
	}
	if n := len(e.lp.entries); n != 0 {
		t.Fatalf("LP memo holds %d fingerprints, want none", n)
	}
}

// resyncThenPromote restores session id from a journal holding one
// create record of format v with config cfg, lets its first commit
// resync a follower, and promotes the follower's copy. The follower
// must receive cfg's model, and the promoted copy must continue
// bit-identically to a session restored from the same journal that
// never moved, posterior bits included.
func resyncThenPromote(t *testing.T, id string, v int, cfg journalConfig) {
	t.Helper()
	follower, fsrv := newFollower(t, 1)
	odir := t.TempDir()
	writeCreateRecord(t, odir, id, v, cfg)
	owner := recoverLegacy(t, odir)
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	// The restored session starts unsynced, so its first commit ships
	// the whole history, create record first.
	before := stepScript(t, owner, id)
	recs := journalRecords(t, follower.replicas.dir, id)
	if recs[0].T != "create" || recs[0].Config.Model != cfg.Model {
		t.Fatalf("follower's first record %+v, want a create naming model %d", recs[0], cfg.Model)
	}

	rdir := t.TempDir()
	writeCreateRecord(t, rdir, id, v, cfg)
	ref := recoverLegacy(t, rdir)
	sameResult(t, "owner vs reference", before, stepScript(t, ref, id))

	// The owner dies; its follower takes over.
	if _, err := follower.PromoteReplica(context.Background(), id, 2); err != nil {
		t.Fatal(err)
	}
	s, _ := follower.Session(id)
	if s.cfg.Model != cfg.Model {
		t.Fatalf("promoted session names model %d, want %d", s.cfg.Model, cfg.Model)
	}
	sameResult(t, "promoted continuation", stepScript(t, follower, id), stepScript(t, ref, id))
	if got, want := sessionDigest(t, follower, id), sessionDigest(t, ref, id); got != want {
		t.Fatalf("promoted posterior %s, reference %s", got, want)
	}
}

// TestLegacySessionResyncThenPromote: a restored model-1 session
// resyncs its follower with a create record that still names no model,
// and the promoted copy continues bit-identically to a model-1 session
// that never moved, posterior bits included.
func TestLegacySessionResyncThenPromote(t *testing.T) {
	resyncThenPromote(t, "leg", 2, legacyConfig)
}

// TestModel2SessionResyncThenPromote: a restored model-2 session
// resyncs its follower with a create record naming model 2, and the
// promoted copy continues bit-identically in model 2.
func TestModel2SessionResyncThenPromote(t *testing.T) {
	resyncThenPromote(t, "m2", journalFormatVersion, model2Config)
}

// TestRecoverRefusesUnknownModel: a journal whose create record names a
// strategy model this binary does not know fails recovery with an
// error naming the model, and is left byte for byte as it was, torn
// tail included. This is how a binary meets a journal written by a
// later one with a newer model: it refuses it instead of replaying it
// in a model the journal does not name, so a new model needs no new
// journal format.
func TestRecoverRefusesUnknownModel(t *testing.T) {
	dir := t.TempDir()
	cfg := legacyConfig
	cfg.Model = 4
	writeCreateRecord(t, dir, "m4", journalFormatVersion, cfg)
	path := journalPath(dir, "m4")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"step","seq":1,"gen":1,"act`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	defer func() { _ = e.Close() }()
	if _, err := e.Recover(); err == nil || !strings.Contains(err.Error(), "strategy model 4 is unknown to this binary") {
		t.Fatalf("recover: %v, want the unknown model refused", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("journal changed by the refused recovery:\nbefore %q\nafter  %q", before, after)
	}
}

// TestCreateRepeatOfLegacySessionReplays: a retried create of a
// restored model-1 session replays it (201, Idempotency-Replayed) even
// though a fresh create would run model 3: the client never picks the
// model, so the comparison leaves it out.
func TestCreateRepeatOfLegacySessionReplays(t *testing.T) {
	dir := t.TempDir()
	writeLegacyJournal(t, dir, "leg", legacyConfig)
	e := recoverLegacy(t, dir)
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	for _, body := range []string{
		`{"id":"leg","scenario":"b","strategy":"GP-discontinuous","seed":7,"tiles":4}`,
		`{"id":"leg","scenario":"b","seed":7,"tiles":4}`,
	} {
		if status, raw, replayed := postCreate(t, srv.URL, body); status != 201 || !replayed {
			t.Fatalf("repeat create %s: %d replayed=%t: %s", body, status, replayed, raw)
		}
	}
	if status, _, _ := postCreate(t, srv.URL, `{"id":"leg","scenario":"b","seed":8,"tiles":4}`); status != 409 {
		t.Fatalf("create with another seed: %d, want 409", status)
	}
	if s, _ := e.Session("leg"); s.cfg.Model != 0 {
		t.Fatalf("replayed session names model %d, want none", s.cfg.Model)
	}
	if recs := journalRecords(t, dir, "leg"); len(recs) != 1 || recs[0].Config.Model != 0 {
		t.Fatalf("journal holds %d records after replays, want the one legacy create", len(recs))
	}
}
