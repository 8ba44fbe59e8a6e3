package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
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

// TestPromoteTornReplicaTail: a follower that crashed mid-append holds
// a replica file with a torn last line. Promotion drops that line and
// cuts it from the file before journaling the generation bump, so the
// bump and every later commit start on lines of their own: a restart
// recovers the promoted generation — not the deposed owner's, which the
// fence would then accept again — and every iteration.
func TestPromoteTornReplicaTail(t *testing.T) {
	for _, commits := range []int{0, 1} {
		t.Run(fmt.Sprintf("commits-after-%d", commits), func(t *testing.T) {
			follower, fsrv := newFollower(t, 1)
			owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
			owner.SetReplicaPlanner(plannerTo(fsrv.URL))
			s, err := owner.CreateSession(SessionConfig{ID: "torn1", ScenarioKey: "b", Strategy: "DC", Seed: 3, Tiles: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, _, err := owner.StepIdem(context.Background(), s.id, ""); err != nil {
					t.Fatal(err)
				}
			}
			appendTornLine(t, journalPath(follower.replicas.dir, s.id))

			p, err := follower.PromoteReplica(context.Background(), s.id, 2)
			if err != nil {
				t.Fatal(err)
			}
			if p.Gen != 2 || p.Iterations != 3 {
				t.Fatalf("promoted %+v, want gen 2 with 3 iterations", p)
			}
			for i := 0; i < commits; i++ {
				if _, _, err := follower.StepIdem(context.Background(), s.id, ""); err != nil {
					t.Fatal(err)
				}
			}
			want, err := follower.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}

			rec := NewWithOptions(Options{Workers: 1, JournalDir: follower.journalDir})
			if _, err := rec.Recover(); err != nil {
				t.Fatalf("recovering the promoted session: %v", err)
			}
			if gen, ok := rec.Generation(s.id); !ok || gen != 2 {
				t.Fatalf("recovered generation (%d, %v), want (2, true)", gen, ok)
			}
			got, err := rec.Result(s.id)
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != 3+commits {
				t.Fatalf("recovered %d iterations, want %d", got.Iterations, 3+commits)
			}
			sameResult(t, "recovered promoted session", want, got)
		})
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

// TestShipOutlivesRequestDeadline: a step whose evaluation lands after
// the request's deadline still commits (a running simulation is never
// cancelled), and its ship must reach the live follower. A ship on the
// expired request context would fail at once, be taken for a transport
// failure, and leave the session lagging and single-copy.
func TestShipOutlivesRequestDeadline(t *testing.T) {
	follower, fsrv := newFollower(t, 1)
	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	s, err := owner.CreateSession(SessionConfig{ID: "late1", ScenarioKey: "b", Seed: 5, Tiles: 48})
	if err != nil {
		t.Fatal(err)
	}
	// A 48-tile evaluation takes several milliseconds, so the 2 ms
	// deadline expires while it runs.
	srv := httptest.NewServer(NewServerWithOptions(owner, ServerOptions{EvalTimeout: 2 * time.Millisecond}))
	defer srv.Close()
	status := 0
	// A deadline that expires before the evaluation even starts
	// answers 504 with nothing evaluated; try again until a step gets
	// through to its commit.
	for try := 0; try < 20 && status != http.StatusOK; try++ {
		status = postRaw(t, srv.URL+"/v1/sessions/"+s.id+"/step", "").StatusCode
		if status != http.StatusOK && status != http.StatusGatewayTimeout {
			t.Fatalf("step status %d, want 200 (or 504 before the evaluation)", status)
		}
	}
	if status != http.StatusOK {
		t.Fatal("no step reached its commit in 20 tries")
	}
	if owner.ReplicationLagging(s.id) {
		t.Fatal("a step that outlived its deadline left replication lagging with the follower up")
	}
	s.mu.Lock()
	seq := s.jl.seq
	s.mu.Unlock()
	st := follower.ReplicaStatus()
	if len(st) != 1 || st[0].ID != s.id || st[0].Seq != seq {
		t.Fatalf("follower replica status %+v, want [%s seq %d]", st, s.id, seq)
	}
	if res, err := owner.Result(s.id); err != nil || res.Iterations != 1 {
		t.Fatalf("owner result %+v, %v; want one committed step", res, err)
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
// fields existed (v1) recover unchanged, as generation 1, in strategy
// model 1.
func TestJournalV1Compat(t *testing.T) {
	dir := t.TempDir()
	writeLegacyJournal(t, dir, "v1s", journalConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4,
	})
	live := recoverLegacy(t, dir)
	before := stepScript(t, live, "v1s")

	// Rewrite the journal as a v1 binary would have written it: no
	// version on the create record, no generation anywhere.
	path := journalPath(dir, "v1s")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v1 := strings.ReplaceAll(string(data), `"v":2,`, "")
	v1 = strings.ReplaceAll(v1, `"gen":1,`, "")
	if !strings.Contains(string(data), `"v":2,`) || strings.Contains(v1, `"gen"`) {
		t.Fatalf("journal rewrite left a version or generation; the format must have changed:\n%s", v1)
	}
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		t.Fatalf("v1 journal must recover: %v", err)
	}
	after, err := rec.Result("v1s")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "v1 recovery", after, before)
	if gen, ok := rec.Generation("v1s"); !ok || gen != 1 {
		t.Fatalf("v1 journal generation (%d, %v), want (1, true)", gen, ok)
	}
}

// TestJournalVersionGate: a journal from a future format version fails
// recovery instead of being misread.
func TestJournalVersionGate(t *testing.T) {
	dir := t.TempDir()
	live := NewWithOptions(Options{Workers: 1, JournalDir: dir})
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
	future := strings.Replace(string(data), fmt.Sprintf(`"v":%d`, journalFormatVersion), `"v":99`, 1)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	defer rec.Close()
	if _, err := rec.Recover(); err == nil || !strings.Contains(err.Error(), "format v99") {
		t.Fatalf("future-version journal: %v, want a version refusal", err)
	}
}
