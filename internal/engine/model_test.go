package engine

import (
	"context"
	"net/http/httptest"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

// legacyConfig is the config of the model-1 sessions below.
var legacyConfig = journalConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4}

// writeLegacyJournal writes the journal that a binary from before
// strategy model 2 started for session id: one create record, format
// v2, naming no model.
func writeLegacyJournal(t *testing.T, dir, id string, cfg journalConfig) {
	t.Helper()
	if err := appendRecords(dir, id, []journalRecord{{T: "create", V: 2, Gen: 1, Config: &cfg}}); err != nil {
		t.Fatal(err)
	}
}

// recoverLegacy restores, on a fresh journaled engine over dir, the
// sessions of the legacy journals written there.
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

// TestRestoredLegacySessionRunsModel1: a session restored from a journal
// that names no model keeps model 1 for the rest of its life. After
// sixteen live steps its posterior is bit for bit that of a model-1
// strategy (simplex bound, fit on every entry) fed the same history, and
// not that of model 2; its bound came through the engine's memo.
func TestRestoredLegacySessionRunsModel1(t *testing.T) {
	dir := t.TempDir()
	writeLegacyJournal(t, dir, "leg", legacyConfig)
	e := recoverLegacy(t, dir)
	for i := 0; i < 16; i++ {
		if _, _, err := e.StepIdem(context.Background(), "leg", ""); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Result("leg")
	if err != nil {
		t.Fatal(err)
	}

	sc, opts := testScenario(t)
	ctx := func(bound func(platform.Scenario, harness.SimOptions) (func(int) float64, error)) core.Context {
		lpf, err := bound(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return core.Context{N: sc.Platform.N(), Min: sc.MinNodes, GroupSizes: sc.Platform.GroupSizes(), LP: lpf}
	}
	model1 := core.NewGPDiscontinuousModel1(ctx(harness.SimplexLPBound))
	model2 := core.NewGPDiscontinuous(ctx(harness.LPBound), core.GPOptions{})
	for _, ref := range []*core.GPStrategy{model1, model2} {
		for i, a := range res.Actions {
			if got := ref.Next(); got != a {
				t.Fatalf("reference proposed %d at step %d, the session %d", got, i, a)
			}
			ref.Observe(a, res.Durations[i])
		}
	}
	got, want1, want2 := sessionDigest(t, e, "leg"), strategyDigest(model1), strategyDigest(model2)
	if want1 == want2 {
		t.Fatalf("both models end at posterior %s; the history cannot tell them apart", want1)
	}
	if got != want1 {
		t.Fatalf("restored legacy session's posterior %s, model 1's %s, model 2's %s", got, want1, want2)
	}
	if n := len(e.lp.entries); n != 1 {
		t.Fatalf("LP memo holds %d fingerprints, want the legacy session's 1", n)
	}
}

// TestLegacySessionResyncThenPromote: a restored model-1 session
// resyncs its follower with a create record that still names no model,
// and the promoted copy continues bit-identically to a model-1 session
// that never moved, posterior bits included.
func TestLegacySessionResyncThenPromote(t *testing.T) {
	follower, fsrv := newFollower(t, 1)
	odir := t.TempDir()
	writeLegacyJournal(t, odir, "leg", legacyConfig)
	owner := recoverLegacy(t, odir)
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	// The restored session starts unsynced, so its first commit ships
	// the whole history, create record first.
	before := stepScript(t, owner, "leg")
	recs := journalRecords(t, follower.replicas.dir, "leg")
	if recs[0].T != "create" || recs[0].Config.Model != 0 {
		t.Fatalf("follower's first record %+v, want a create naming no model", recs[0])
	}

	rdir := t.TempDir()
	writeLegacyJournal(t, rdir, "leg", legacyConfig)
	ref := recoverLegacy(t, rdir)
	sameResult(t, "owner vs reference", before, stepScript(t, ref, "leg"))

	// The owner dies; its follower takes over.
	if _, err := follower.PromoteReplica(context.Background(), "leg", 2); err != nil {
		t.Fatal(err)
	}
	s, _ := follower.Session("leg")
	if s.cfg.Model != 0 {
		t.Fatalf("promoted session names model %d, want none", s.cfg.Model)
	}
	sameResult(t, "promoted continuation", stepScript(t, follower, "leg"), stepScript(t, ref, "leg"))
	if got, want := sessionDigest(t, follower, "leg"), sessionDigest(t, ref, "leg"); got != want {
		t.Fatalf("promoted posterior %s, reference %s", got, want)
	}
}

// TestCreateRepeatOfLegacySessionReplays: a retried create of a
// restored model-1 session replays it (201, Idempotency-Replayed) even
// though a fresh create would run model 2: the client never picks the
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
