package engine

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// newFollower builds an engine with a journal directory and serves it
// over a test HTTP server, so an owner engine can ship replica batches
// to it exactly as it would to a real fleet member.
func newFollower(t *testing.T, workers int) (*Engine, *httptest.Server) {
	t.Helper()
	e := NewWithOptions(Options{Workers: workers, JournalDir: t.TempDir()})
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(srv.Close)
	t.Cleanup(func() { _ = e.Close() })
	return e, srv
}

// plannerTo points every session at one follower address.
func plannerTo(addr string) ReplicaPlanner {
	return func(string) (string, bool) { return addr, true }
}

// TestPromoteReplicaBitIdentical is the replication invariant: a
// session whose owner dies without any shutdown (the crash model — the
// owner's disk is gone, only shipped-and-acked records exist) promotes
// on its follower into exactly the state an uninterrupted session has,
// and its further trajectory stays bit-for-bit identical.
func TestPromoteReplicaBitIdentical(t *testing.T) {
	follower, fsrv := newFollower(t, 2)

	owner := NewWithOptions(Options{Workers: 4, JournalDir: t.TempDir()})
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	s, err := owner.CreateSession(SessionConfig{
		ID: "fo1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, owner, s.id)

	// Uninterrupted reference: same config, no replication, no journal.
	ref := NewWithOptions(Options{Workers: 1})
	rs, err := ref.CreateSession(SessionConfig{
		ID: "fo1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	refRes := stepScript(t, ref, rs.id)
	sameResult(t, "owner vs reference", before, refRes)

	// "Kill" the owner: no Close, no flush; its disk is never read again.
	promoted, err := follower.PromoteReplica(context.Background(), s.id, 2)
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Gen < 2 {
		t.Fatalf("promotion gen %d, want >= 2", promoted.Gen)
	}
	if promoted.Iterations != before.Iterations || promoted.Epoch != before.Epoch {
		t.Fatalf("promoted (%d iters, epoch %d), owner had (%d, %d)",
			promoted.Iterations, promoted.Epoch, before.Iterations, before.Epoch)
	}
	got, err := follower.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "promoted vs owner", got, before)

	// The promoted session keeps producing the reference trajectory.
	contP := stepScript(t, follower, s.id)
	contR := stepScript(t, ref, rs.id)
	sameResult(t, "continued after promotion", contP, contR)

	if gen, ok := follower.Generation(s.id); !ok || gen != promoted.Gen {
		t.Fatalf("follower generation (%d, %v), want (%d, true)", gen, ok, promoted.Gen)
	}
}

// TestPromoteReplicaIdempotent: re-promoting an already-live session at
// or below its generation reports the live state; demanding a higher
// generation than the live one is an explicit error, not a restart.
// TestCreateReplicatedBeforeAck: the create record itself ships at
// create time, so a session whose owner dies before its first op
// commits is still promotable on the follower. Without this, the id
// would be registered with the router yet unservable forever — the
// supervisor's promote finds no replica, and clients retry into a
// dead shard until their deadlines drain.
func TestCreateReplicatedBeforeAck(t *testing.T) {
	follower, fsrv := newFollower(t, 1)

	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	s, err := owner.CreateSession(SessionConfig{
		ID: "fresh1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 11, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// "Kill" the owner with zero ops committed: the acked create alone
	// must be enough for the follower to take over.
	promoted, err := follower.PromoteReplica(context.Background(), s.id, 2)
	if err != nil {
		t.Fatalf("promoting an op-less session: %v", err)
	}
	if promoted.Gen < 2 || promoted.Iterations != 0 {
		t.Fatalf("promoted %+v, want gen >= 2 with 0 iterations", promoted)
	}

	// The promoted session runs from scratch bit-identically to an
	// uninterrupted engine with the same config.
	got := stepScript(t, follower, s.id)
	ref := NewWithOptions(Options{Workers: 1})
	rs, err := ref.CreateSession(SessionConfig{
		ID: "fresh1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 11, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "promoted op-less session vs reference", got, stepScript(t, ref, rs.id))
}

func TestPromoteReplicaIdempotent(t *testing.T) {
	e := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer e.Close()
	s, err := e.CreateSession(SessionConfig{ID: "idem1", ScenarioKey: "b", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	p, err := e.PromoteReplica(context.Background(), s.id, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Gen != 1 || p.Iterations != 1 {
		t.Fatalf("idempotent promote %+v, want gen 1 with 1 iteration", p)
	}
	if _, err := e.PromoteReplica(context.Background(), s.id, 9); err == nil {
		t.Fatal("promotion above the live generation must fail, got nil")
	}
	if _, err := e.PromoteReplica(context.Background(), "nosuch", 2); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("promoting an unknown id: %v, want ErrNoReplica", err)
	}
}

// TestFencingDeposedOwner: after the follower promotes, the deposed
// owner's next commit is refused by the fence and the session fails
// closed on the zombie — split-brain is structurally impossible.
func TestFencingDeposedOwner(t *testing.T) {
	follower, fsrv := newFollower(t, 1)

	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	s, err := owner.CreateSession(SessionConfig{ID: "fen1", ScenarioKey: "b", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}

	// The supervisor deposes the owner (it was unreachable from the
	// router, say) and promotes the follower at generation 2.
	if _, err := follower.PromoteReplica(context.Background(), s.id, 2); err != nil {
		t.Fatal(err)
	}

	// The zombie owner comes back from its partition and tries to keep
	// committing: the ship is refused, the commit errors, and the
	// session fails closed.
	_, _, err = owner.StepIdem(context.Background(), s.id, "")
	if err == nil || !strings.Contains(err.Error(), "fenced out") {
		t.Fatalf("deposed owner's commit: %v, want fenced out", err)
	}
	if _, _, err := owner.StepIdem(context.Background(), s.id, ""); err == nil ||
		!strings.Contains(err.Error(), "failed closed") {
		t.Fatalf("second commit on the zombie: %v, want failed closed", err)
	}

	// The promoted copy is unharmed and still serving.
	if _, _, err := follower.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatalf("promoted session must keep serving: %v", err)
	}
}

// TestReplicationDegradedThenResync: an unreachable follower degrades
// replication (commits still ack, lag is visible) and the next
// successful ship is a full resync that clears the lag.
func TestReplicationDegradedThenResync(t *testing.T) {
	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	// Reserved port, nothing listens: transport failure, not a refusal.
	owner.SetReplicaPlanner(plannerTo("http://127.0.0.1:1"))
	s, err := owner.CreateSession(SessionConfig{ID: "lag1", ScenarioKey: "b", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatalf("degraded mode must stay available: %v", err)
	}
	if !owner.ReplicationLagging(s.id) {
		t.Fatal("session must report lagging replication after a failed ship")
	}

	follower, fsrv := newFollower(t, 1)
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	if _, _, err := owner.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	if owner.ReplicationLagging(s.id) {
		t.Fatal("lag must clear after a successful resync")
	}
	st := follower.ReplicaStatus()
	if len(st) != 1 || st[0].ID != s.id || st[0].Seq != 2 {
		t.Fatalf("follower replica status %+v, want [%s seq 2]", st, s.id)
	}
}

// TestAppendReplicaValidation exercises the replica store's refusal
// matrix directly: gap without state, contiguity, stale generations and
// the mid-promotion window.
func TestAppendReplicaValidation(t *testing.T) {
	e := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer e.Close()
	cfg := &journalConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 1}

	if _, err := e.AppendReplica(context.Background(), "v1", nil); err == nil {
		t.Fatal("empty batch must be refused")
	}
	if _, err := e.AppendReplica(context.Background(), "../evil", []journalRecord{{T: "create"}}); err == nil {
		t.Fatal("invalid session id must be refused")
	}

	// No state and no leading create: demand a resync.
	_, err := e.AppendReplica(context.Background(), "v1", []journalRecord{{T: "epoch", Seq: 1, Gen: 1, Epoch: 1}})
	if !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("append without state: %v, want ErrReplicaGap", err)
	}

	// Full resync: create plus two ops lands at seq 2.
	seq, err := e.AppendReplica(context.Background(), "v1", []journalRecord{
		{T: "create", V: journalFormatVersion, Gen: 1, Config: cfg},
		{T: "epoch", Seq: 1, Gen: 1, Epoch: 1},
		{T: "epoch", Seq: 2, Gen: 1, Epoch: 2},
	})
	if err != nil || seq != 2 {
		t.Fatalf("resync append: (%d, %v), want (2, nil)", seq, err)
	}

	// Contiguous extension is accepted; a gap is refused.
	if _, err := e.AppendReplica(context.Background(), "v1", []journalRecord{{T: "epoch", Seq: 3, Gen: 1, Epoch: 3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendReplica(context.Background(), "v1", []journalRecord{{T: "epoch", Seq: 9, Gen: 1, Epoch: 4}}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gapped append: %v, want ErrReplicaGap", err)
	}

	// A batch from an older generation than the replica has seen is a
	// deposed owner.
	if _, err := e.AppendReplica(context.Background(), "v1", []journalRecord{
		{T: "create", V: journalFormatVersion, Gen: 2, Config: cfg},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AppendReplica(context.Background(), "v1", []journalRecord{{T: "epoch", Seq: 1, Gen: 1, Epoch: 1}}); !errors.Is(err, ErrStaleGeneration) {
		t.Fatalf("stale-generation append: %v, want ErrStaleGeneration", err)
	}

	// While a promotion is installing the file, appends are refused as a
	// gap — the deposed owner must not recreate replica state that the
	// install would orphan.
	e.replicas.mu.Lock()
	e.replicas.promoting["v1"] = true
	e.replicas.mu.Unlock()
	if _, err := e.AppendReplica(context.Background(), "v1", []journalRecord{
		{T: "create", V: journalFormatVersion, Gen: 2, Config: cfg},
	}); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("append during promotion: %v, want ErrReplicaGap", err)
	}
	e.replicas.mu.Lock()
	delete(e.replicas.promoting, "v1")
	e.replicas.mu.Unlock()
}

// TestJournalV1Compat: journals written before the version/generation
// fields existed (v1) recover unchanged, as generation 1.
func TestJournalV1Compat(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 2, JournalDir: dir, SnapshotEvery: 100})
	s, err := live.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := stepScript(t, live, s.id)

	// Rewrite the journal as a v1 binary would have written it: no
	// version on the create record, no generation anywhere.
	path := journalPath(dir, s.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.ReplaceAll(string(data), `"v":2,`, "")
	v1 = strings.ReplaceAll(v1, `"gen":1,`, "")
	if v1 == string(data) {
		t.Fatal("journal rewrite was a no-op; the format must have changed")
	}
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 100})
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("v1 journal must recover: %v", err)
	}
	after, err := rec.Result(s.id)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "v1 recovery", after, before)
	if gen, ok := rec.Generation(s.id); !ok || gen != 1 {
		t.Fatalf("v1 journal generation (%d, %v), want (1, true)", gen, ok)
	}
}

// TestJournalVersionGate: a journal from a future format version fails
// recovery instead of being misread.
func TestJournalVersionGate(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 100})
	s, err := live.CreateSession(SessionConfig{ScenarioKey: "b", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := live.StepIdem(context.Background(), s.id, ""); err != nil {
		t.Fatal(err)
	}
	path := journalPath(dir, s.id)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(data), `"v":2`, `"v":99`, 1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir, SnapshotEvery: 100})
	defer rec.Close()
	if _, err := rec.Recover(); err == nil || !strings.Contains(err.Error(), "format v99") {
		t.Fatalf("future-version journal: %v, want a version refusal", err)
	}
}
