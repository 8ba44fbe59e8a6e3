package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phasetune/internal/engine"
	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
)

// replFleet is a supervised router over n journaled workers whose
// replica planners are what phasetune-serve wires from a FleetConfig.
type replFleet struct {
	router  *Router
	front   *httptest.Server
	engines []*engine.Engine
	workers []*httptest.Server
	names   []string
	ring    *Ring
}

// newReplFleet builds the fleet. Given a clock, it also wires full
// observability: every engine carries telemetry plus an event log, and
// the router records its own spans and events, all on that clock — the
// in-process mirror of what phasetune-serve and phasetune-shard wire
// from flags.
func newReplFleet(t *testing.T, n int, clock func() int64) *replFleet {
	t.Helper()
	f := &replFleet{}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		opts := engine.Options{Workers: 1, JournalDir: t.TempDir()}
		if clock != nil {
			opts.Telemetry = obsv.NewTelemetry(clock)
			opts.Telemetry.Events = events.New(clock)
		}
		e := engine.NewWithOptions(opts)
		srv := httptest.NewServer(engine.NewServer(e))
		t.Cleanup(srv.Close)
		name := fmt.Sprintf("w%d", i)
		f.engines = append(f.engines, e)
		f.workers = append(f.workers, srv)
		f.names = append(f.names, name)
		shards = append(shards, Shard{Name: name, Addr: srv.URL})
	}
	ring, err := NewRing(f.names, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.ring = ring
	for i, e := range f.engines {
		plan, err := FleetConfig{Self: f.names[i], Members: shards}.Planner()
		if err != nil {
			t.Fatal(err)
		}
		e.SetReplicaPlanner(plan)
	}
	ropts := Options{Shards: shards, Seed: 7, HealthInterval: time.Hour, Supervise: true}
	if clock != nil {
		ropts.Trace = obsv.NewTraceRecorder(clock)
		ropts.Events = events.New(clock)
		ropts.Now = clock
	}
	rt, err := New(ropts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.CheckNow() // seed the up/down state before any create routes
	f.router = rt
	f.front = httptest.NewServer(rt)
	t.Cleanup(f.front.Close)
	return f
}

func (f *replFleet) post(t *testing.T, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(f.front.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// TestSupervisorAutoPromote is the failover story end to end, in
// process: the owner of a replicated session dies and is never
// restarted, the supervisor promotes the follower with zero manual
// repoints, the session keeps serving through the router, and the
// revived zombie owner is fenced out of its old generation.
func TestSupervisorAutoPromote(t *testing.T) {
	f := newReplFleet(t, 3, nil)

	resp, raw := f.post(t, "/v1/sessions", sessionBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	id := created.ID
	owner := resp.Header.Get("X-Phasetune-Shard")

	// A few committed (and therefore replicated) operations.
	for i := 0; i < 3; i++ {
		if resp, raw := f.post(t, "/v1/sessions/"+id+"/step", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %d %s", i, resp.StatusCode, raw)
		}
	}

	chain := f.ring.LookupN(id, 3)
	if chain[0] != owner {
		t.Fatalf("session created on %s, ring owner is %s", owner, chain[0])
	}
	follower := chain[1]

	var victim int
	for i, name := range f.names {
		if name == owner {
			victim = i
		}
	}
	f.workers[victim].Close() // the crash; never restarted

	// One supervisor pass: probe, then promote. No /admin/shards call.
	f.router.CheckNow()
	f.router.SuperviseNow(context.Background())

	resp, raw = f.post(t, "/v1/sessions/"+id+"/step", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step after failover: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Phasetune-Shard"); got != follower {
		t.Fatalf("promoted session served by %s, want follower %s", got, follower)
	}

	// The registry reflects the takeover at a bumped generation.
	sresp, err := http.Get(f.front.URL + "/admin/sessions")
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var sessions []struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Gen   uint64 `json:"gen"`
	}
	if err := json.Unmarshal(sraw, &sessions); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, s := range sessions {
		if s.ID == id {
			found = true
			if s.Shard != follower || s.Gen < 2 {
				t.Fatalf("registry entry %+v, want shard %s at gen >= 2", s, follower)
			}
		}
	}
	if !found {
		t.Fatalf("session %s missing from /admin/sessions: %s", id, sraw)
	}

	// The zombie: the owner process is still alive in memory (only its
	// listener died). Its next commit ships to the promoted follower,
	// is refused by the fence, and the session fails closed.
	if _, _, err := f.engines[victim].StepIdem(context.Background(), id, ""); err == nil ||
		!strings.Contains(err.Error(), "fenced out") {
		t.Fatalf("zombie owner's commit: %v, want fenced out", err)
	}
}

// TestSupervisedCreateSkipsDeadOwner: with a member down, new sessions
// whose ring owner is the dead shard are born on the next live chain
// member instead of bouncing, and stay sticky there.
func TestSupervisedCreateSkipsDeadOwner(t *testing.T) {
	f := newReplFleet(t, 3, nil)
	f.workers[0].Close()
	f.router.CheckNow()

	for i := 0; i < 8; i++ {
		resp, raw := f.post(t, "/v1/sessions", sessionBody)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create with a dead member: %d %s", resp.StatusCode, raw)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &created); err != nil {
			t.Fatal(err)
		}
		born := resp.Header.Get("X-Phasetune-Shard")
		if born == "w0" {
			t.Fatalf("session %s born on the dead shard", created.ID)
		}
		if resp, raw := f.post(t, "/v1/sessions/"+created.ID+"/step", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("step on displaced session: %d %s", resp.StatusCode, raw)
		}
	}
}

// TestReplicaPlacementProperties pins the placement function the whole
// design leans on: owner and follower are always distinct, any two
// independently built rings agree on both, and repointing a shard's
// address (the manual failover path) does not move any session.
func TestReplicaPlacementProperties(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		a, err := NewRing(names, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewRing(names, 0) // independent construction, same members
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			id := fmt.Sprintf("sess-%d", i)
			chain := a.LookupN(id, 2)
			if len(chain) != 2 {
				t.Fatalf("n=%d id=%s: chain %v, want owner+follower", n, id, chain)
			}
			if chain[0] != a.Lookup(id) {
				t.Fatalf("n=%d id=%s: chain head %s, Lookup says %s", n, id, chain[0], a.Lookup(id))
			}
			if chain[0] == chain[1] {
				t.Fatalf("n=%d id=%s: owner and follower both %s", n, id, chain[0])
			}
			other := b.LookupN(id, 2)
			if chain[0] != other[0] || chain[1] != other[1] {
				t.Fatalf("n=%d id=%s: rings disagree, %v vs %v", n, id, chain, other)
			}
		}
	}
}

// TestPlacementSurvivesRepoint: POST /admin/shards swaps a member's
// address, not its identity — the ring, and therefore every session's
// owner/follower chain, is unchanged.
func TestPlacementSurvivesRepoint(t *testing.T) {
	f := newFleet(t, 3)
	type placement struct{ owner, follower string }
	before := map[string]placement{}
	for i := 0; i < 32; i++ {
		id := fmt.Sprintf("pin-%d", i)
		chain := f.router.ring.LookupN(id, 2)
		before[id] = placement{chain[0], chain[1]}
	}

	replacement := httptest.NewServer(engine.NewServer(f.engines[1]))
	t.Cleanup(replacement.Close)
	body, _ := json.Marshal(Shard{Name: "w1", Addr: replacement.URL})
	resp, err := http.Post(f.front.URL+"/admin/shards", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repoint: %d", resp.StatusCode)
	}

	for id, want := range before {
		chain := f.router.ring.LookupN(id, 2)
		if chain[0] != want.owner || chain[1] != want.follower {
			t.Fatalf("repoint moved %s: (%s, %s) vs (%s, %s)",
				id, chain[0], chain[1], want.owner, want.follower)
		}
	}
}

// TestJitteredInterval pins the health ticker's jitter to its contract:
// deterministic by seed, spread over [3/4, 5/4] of the interval so a
// fleet of routers does not probe in lockstep.
func TestJitteredInterval(t *testing.T) {
	mk := func(seed int64) *Router {
		rt, err := New(Options{
			Shards:         []Shard{{Name: "w0", Addr: "http://127.0.0.1:1"}},
			Seed:           seed,
			HealthInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt
	}
	a, b, c := mk(7), mk(7), mk(8)
	var varied bool
	for n := uint64(0); n < 100; n++ {
		d := a.jitteredInterval(n)
		if d < time.Hour*3/4 || d >= time.Hour*5/4 {
			t.Fatalf("tick %d: %v outside [3/4, 5/4] of the interval", n, d)
		}
		if d != b.jitteredInterval(n) {
			t.Fatalf("tick %d: same seed, different jitter", n)
		}
		if d != c.jitteredInterval(n) {
			varied = true
		}
		if d != time.Hour {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter never deviated; the spread is not happening")
	}
}

// TestRetryAfterOnBadGateway is the 502 regression guard: a shard the
// router still believes is up but whose connection fails mid-proxy
// answers 502 with a Retry-After, so resilient clients back off and
// retry instead of hot-looping.
func TestRetryAfterOnBadGateway(t *testing.T) {
	f := newFleet(t, 2)
	id, shard := f.createSession(t, sessionBody)

	var victim int
	for i, name := range f.names {
		if name == shard {
			victim = i
		}
	}
	// Crash without a health pass: the router has not noticed yet, so
	// the proxy itself hits the dead connection.
	f.workers[victim].Close()

	resp, err := http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("proxy to a crashed shard: %d, want 502", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("502 without Retry-After")
	}
	ra := resp.Header.Get("Retry-After")
	var secs int
	if _, err := fmt.Sscanf(ra, "%d", &secs); err != nil || secs < retryAfterMin || secs > retryAfterMax {
		t.Fatalf("Retry-After %q outside [%d, %d] seconds", ra, retryAfterMin, retryAfterMax)
	}
}

// TestCreateRetryFollowsRegistry: a create retried after its session
// was promoted, and after the dead owner came back as a zombie, goes
// where the registry says the session lives — the promoted follower —
// and replays there. It does not reach the ring owner, and it leaves
// the registered generation as the promotion set it.
func TestCreateRetryFollowsRegistry(t *testing.T) {
	f := newReplFleet(t, 3, nil)
	const body = `{"id":"retry-1","scenario":"b","strategy":"GP-discontinuous","seed":5,"tiles":4}`
	resp, first := f.post(t, "/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, first)
	}
	owner := resp.Header.Get("X-Phasetune-Shard")
	follower := f.ring.LookupN("retry-1", 2)[1]
	var victim int
	for i, name := range f.names {
		if name == owner {
			victim = i
		}
	}
	f.workers[victim].Close()
	f.router.CheckNow()
	f.router.SuperviseNow(context.Background())

	// The owner comes back on a new listener; its engine still holds the
	// session at generation 1.
	zombie := httptest.NewServer(engine.NewServer(f.engines[victim]))
	t.Cleanup(zombie.Close)
	if resp, raw := f.post(t, "/admin/shards", fmt.Sprintf(`{"name":%q,"addr":%q}`, owner, zombie.URL)); resp.StatusCode != http.StatusOK {
		t.Fatalf("repoint %s: %d %s", owner, resp.StatusCode, raw)
	}

	resp, again := f.post(t, "/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("retried create: %d replayed=%q %s", resp.StatusCode, resp.Header.Get("Idempotency-Replayed"), again)
	}
	if got := resp.Header.Get("X-Phasetune-Shard"); got != follower {
		t.Fatalf("retried create reached %s, want the registered follower %s", got, follower)
	}
	if string(again) != string(first) {
		t.Fatalf("replayed create body differs:\n%s\nvs\n%s", first, again)
	}

	sresp, err := http.Get(f.front.URL + "/admin/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sessions []struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Gen   uint64 `json:"gen"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&sessions); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Shard != follower || sessions[0].Gen < 2 {
		t.Fatalf("registry %+v, want retry-1 on %s at generation >= 2", sessions, follower)
	}
}
