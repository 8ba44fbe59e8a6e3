package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasetune/internal/platform"
)

// postCreate sends one raw create-session body and returns the status,
// the response bytes and the replay marker.
func postCreate(t *testing.T, base, body string) (int, []byte, bool) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw, resp.Header.Get("Idempotency-Replayed") == "true"
}

// TestCreateRepeatReplays: a repeated create of a live id with the same
// config returns the same session and changes nothing durable — the
// journal holds one create record, and the follower received one.
func TestCreateRepeatReplays(t *testing.T) {
	follower, fsrv := newFollower(t, 1)
	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	cfg := SessionConfig{ID: "dup1", ScenarioKey: "b", Strategy: "DC", Seed: 4, Tiles: 4}

	first, err := owner.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		again, err := owner.CreateSession(cfg)
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if again != first {
			t.Fatalf("repeat %d returned another session", i)
		}
	}
	// The strategy default resolves before the comparison.
	if _, err := owner.CreateSession(SessionConfig{ID: "dup2", ScenarioKey: "b", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := owner.CreateSession(SessionConfig{ID: "dup2", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 4}); err != nil {
		t.Fatalf("repeat naming the default strategy: %v", err)
	}

	if recs := journalRecords(t, owner.journalDir, "dup1"); len(recs) != 1 || recs[0].T != "create" {
		t.Fatalf("owner journal holds %d records, want the one create record", len(recs))
	}
	if recs := journalRecords(t, follower.replicas.dir, "dup1"); len(recs) != 1 || recs[0].T != "create" {
		t.Fatalf("follower replica holds %d records, want the one create record", len(recs))
	}
}

// TestCreateConflictOverHTTP: a repeated create of a live id with any
// other config answers 409, and the original config still replays.
func TestCreateConflictOverHTTP(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(1)))
	defer srv.Close()
	const body = `{"id":"c1","scenario":"b","strategy":"DC","seed":1,"tiles":4}`
	if st, raw, _ := postCreate(t, srv.URL, body); st != http.StatusCreated {
		t.Fatalf("create: %d %s", st, raw)
	}
	for _, other := range []string{
		`{"id":"c1","scenario":"c","strategy":"DC","seed":1,"tiles":4}`,
		`{"id":"c1","scenario":"b","strategy":"UCB","seed":1,"tiles":4}`,
		`{"id":"c1","scenario":"b","strategy":"DC","seed":2,"tiles":4}`,
		`{"id":"c1","scenario":"b","strategy":"DC","seed":1,"tiles":5}`,
		`{"id":"c1","scenario":"b","strategy":"DC","seed":1,"tiles":4,"exact":true}`,
		`{"id":"c1","scenario":"b","strategy":"DC","seed":1,"tiles":4,"gen_nodes":3}`,
	} {
		if st, raw, _ := postCreate(t, srv.URL, other); st != http.StatusConflict {
			t.Fatalf("create %s over a live id: %d %s, want 409", other, st, raw)
		}
	}
	if st, raw, replayed := postCreate(t, srv.URL, body); st != http.StatusCreated || !replayed {
		t.Fatalf("repeat of the original create: %d replayed=%v %s", st, replayed, raw)
	}
}

// TestCreateReplayOverHTTP: a replayed create answers 201 with the
// first answer's bytes, marked Idempotency-Replayed.
func TestCreateReplayOverHTTP(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})))
	defer srv.Close()
	const body = `{"id":"h1","scenario":"b","seed":9,"tiles":4}`
	st1, raw1, replayed1 := postCreate(t, srv.URL, body)
	if st1 != http.StatusCreated || replayed1 {
		t.Fatalf("first create: %d replayed=%v %s", st1, replayed1, raw1)
	}
	st2, raw2, replayed2 := postCreate(t, srv.URL, body)
	if st2 != http.StatusCreated || !replayed2 {
		t.Fatalf("repeated create: %d replayed=%v %s", st2, replayed2, raw2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("replayed body differs:\nfirst:  %s\nrepeat: %s", raw1, raw2)
	}
}

// blockingFollower is a replica endpoint that holds every append until
// release is called, then answers with status; started receives one
// value per append as it arrives.
func blockingFollower(t *testing.T, status int) (srv *httptest.Server, started chan struct{}, release func()) {
	t.Helper()
	started = make(chan struct{}, 64)
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		started <- struct{}{}
		<-gate
		w.WriteHeader(status)
		_, _ = fmt.Fprint(w, `{"seq":0}`)
	}))
	t.Cleanup(srv.Close)
	t.Cleanup(release) // runs first: a failed test must not hang in Close
	return srv, started, release
}

// TestCreateConcurrentDuplicates: duplicates of a create whose record is
// still shipping wait for that ship to end. When the follower then
// accepts, every duplicate replays the one session; when it refuses,
// the create rolls back and no duplicate replays it.
func TestCreateConcurrentDuplicates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{{"accepted", http.StatusOK}, {"refused", http.StatusForbidden}} {
		t.Run(tc.name, func(t *testing.T) {
			fsrv, started, release := blockingFollower(t, tc.status)
			owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
			defer owner.Close()
			owner.SetReplicaPlanner(plannerTo(fsrv.URL))
			cfg := SessionConfig{ID: "race1", ScenarioKey: "b", Strategy: "DC", Seed: 2, Tiles: 4}

			type outcome struct {
				s         *Session
				err       error
				afterShip bool
			}
			var shipEnded atomic.Bool
			firstDone := make(chan outcome, 1)
			go func() {
				s, err := owner.CreateSession(cfg)
				firstDone <- outcome{s, err, shipEnded.Load()}
			}()
			<-started // the first create's record is on the wire

			const dups = 4
			var wg sync.WaitGroup
			outs := make([]outcome, dups)
			for i := range outs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					s, err := owner.CreateSession(cfg)
					outs[i] = outcome{s, err, shipEnded.Load()}
				}(i)
			}
			// Let the duplicates reach the session's mutex before the ship
			// ends; the afterShip check below holds whether or not they did.
			time.Sleep(50 * time.Millisecond)
			shipEnded.Store(true)
			release()
			first := <-firstDone
			wg.Wait()

			for i, o := range outs {
				if !o.afterShip {
					t.Fatalf("duplicate %d answered before the first ship ended", i)
				}
				if tc.status == http.StatusOK {
					if o.err != nil || o.s != first.s {
						t.Fatalf("duplicate %d: session %p err %v, want the first create's %p", i, o.s, o.err, first.s)
					}
					continue
				}
				if o.err == nil {
					t.Fatalf("duplicate %d got a session from a follower that refuses every create", i)
				}
			}
			if tc.status == http.StatusOK {
				if first.err != nil {
					t.Fatal(first.err)
				}
				return
			}
			if first.err == nil {
				t.Fatal("create acked over a refused ship")
			}
			if _, ok := owner.Session("race1"); ok {
				t.Fatal("a refused create left a live session")
			}
		})
	}
}

// TestCreateRepeatAfterRecover: a recovered session answers a repeated
// create as the live one did — a replay that writes nothing.
func TestCreateRepeatAfterRecover(t *testing.T) {
	dir := t.TempDir()
	e := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	cfg := SessionConfig{ID: "rec1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 6, Tiles: 4}
	if _, err := e.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	want := stepScript(t, e, "rec1")
	_ = e.Close()

	rec := NewWithOptions(Options{Workers: 1, JournalDir: dir})
	defer rec.Close()
	if _, err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(journalPath(dir, "rec1"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := rec.CreateSession(cfg)
	if err != nil {
		t.Fatalf("repeated create after recovery: %v", err)
	}
	if live, _ := rec.Session("rec1"); s != live {
		t.Fatal("repeated create after recovery made another session")
	}
	got, err := rec.Result("rec1")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "replayed after recovery", got, want)
	after, err := os.ReadFile(journalPath(dir, "rec1"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the replayed create wrote to the journal")
	}
}

// TestCreateAdoptsReplica: a create retried on the follower of an owner
// that shipped the create record and then died — the router skips a
// dead owner — promotes the follower's replica and replays it, at a
// generation that fences the old owner, and the session then steps
// bit-identically to an uninterrupted one.
func TestCreateAdoptsReplica(t *testing.T) {
	follower, fsrv := newFollower(t, 1)
	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	cfg := SessionConfig{ID: "adopt1", ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 13, Tiles: 4}
	if _, err := owner.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}

	// The owner dies before answering; the retry reaches the follower.
	s, err := follower.CreateSession(cfg)
	if err != nil {
		t.Fatalf("create over a held replica: %v", err)
	}
	if gen, _ := follower.Generation("adopt1"); gen < 2 {
		t.Fatalf("adopted session at generation %d, want >= 2", gen)
	}
	if _, err := follower.CreateSession(SessionConfig{ID: "adopt1", ScenarioKey: "b", Seed: 14, Tiles: 4}); err == nil {
		t.Fatal("a create with another config replayed the adopted session")
	}

	ref := New(1)
	rs, err := ref.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "adopted vs reference", stepScript(t, follower, s.id), stepScript(t, ref, rs.id))
}

// TestStatusForErrorKinds pins the HTTP status of each engine failure;
// the statuses are the ones the message-matching classifier gave.
func TestStatusForErrorKinds(t *testing.T) {
	ctx := context.Background()
	e := New(1)
	journaled := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer journaled.Close()
	if _, err := e.CreateSession(SessionConfig{ID: "k1", ScenarioKey: "b", Seed: 1, Tiles: 4}); err != nil {
		t.Fatal(err)
	}

	// A fenced owner: its first commit after the follower's promotion is
	// fenced out, and every later one finds the session failed closed.
	follower, fsrv := newFollower(t, 1)
	owner := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	defer owner.Close()
	owner.SetReplicaPlanner(plannerTo(fsrv.URL))
	if _, err := owner.CreateSession(SessionConfig{ID: "f1", ScenarioKey: "b", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.PromoteReplica(ctx, "f1", 2); err != nil {
		t.Fatal(err)
	}
	_, _, fenced := owner.StepIdem(ctx, "f1", "")
	_, _, failedClosed := owner.StepIdem(ctx, "f1", "")

	explicit := platform.Scenarios()[0]
	errOf := func(_ *Session, err error) error { return err }
	batchErr := func(_ []StepResult, _ bool, err error) error { return err }
	stepErr := func(_ StepResult, _ bool, err error) error { return err }
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"unknown scenario", errOf(e.CreateSession(SessionConfig{ScenarioKey: "zz"})), http.StatusNotFound},
		{"unknown strategy", errOf(e.CreateSession(SessionConfig{ScenarioKey: "b", Strategy: "nope"})), http.StatusNotFound},
		{"bad tiles", errOf(e.CreateSession(SessionConfig{ScenarioKey: "b", Tiles: 1 << 20})), http.StatusBadRequest},
		{"bad batch width", batchErr(e.BatchStepIdem(ctx, "k1", 1<<20, "")), http.StatusBadRequest},
		{"invalid id", errOf(e.CreateSession(SessionConfig{ID: "a/b", ScenarioKey: "b"})), http.StatusBadRequest},
		{"explicit scenario with a journal", errOf(journaled.CreateSession(SessionConfig{Scenario: &explicit})), http.StatusBadRequest},
		{"missing session", stepErr(e.StepIdem(ctx, "nosuch", "")), http.StatusNotFound},
		{"failed-closed session", failedClosed, http.StatusServiceUnavailable},
		{"fenced session", fenced, http.StatusConflict},
		{"id conflict", errOf(e.CreateSession(SessionConfig{ID: "k1", ScenarioKey: "b", Seed: 2, Tiles: 4})), http.StatusConflict},
	} {
		if tc.err == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("%s: status %d for %v, want %d", tc.name, got, tc.err, tc.want)
		}
	}
}
