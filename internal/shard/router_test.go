package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"phasetune/internal/engine"
	"phasetune/internal/obsv/events"
)

// fleet is a router over n in-process workers, everything on httptest
// listeners.
type fleet struct {
	router  *Router
	opts    Options          // the router's options, to build a second router alike
	front   *httptest.Server // the router's listener
	engines []*engine.Engine
	workers []*httptest.Server
	names   []string
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{}
	shards := make([]Shard, 0, n)
	for i := 0; i < n; i++ {
		e := engine.New(1)
		srv := httptest.NewServer(engine.NewServer(e))
		t.Cleanup(srv.Close)
		name := fmt.Sprintf("w%d", i)
		f.engines = append(f.engines, e)
		f.workers = append(f.workers, srv)
		f.names = append(f.names, name)
		shards = append(shards, Shard{Name: name, Addr: srv.URL})
	}
	// A fake clock fixes the minted-id base, so the ids, and how many
	// sessions each shard owns, are the same on every run.
	clock := sharedNanos()
	f.opts = Options{Shards: shards, Seed: 7, HealthInterval: time.Hour, Now: clock, Events: events.New(clock)}
	rt, err := New(f.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	f.router = rt
	f.front = httptest.NewServer(rt)
	t.Cleanup(f.front.Close)
	return f
}

func (f *fleet) createSession(t *testing.T, body string) (id, shard string) {
	t.Helper()
	resp, err := http.Post(f.front.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.Header.Get("X-Phasetune-Shard")
}

const sessionBody = `{"scenario":"b","strategy":"GP-discontinuous","seed":5,"tiles":4}`

func TestRouterSessionRouting(t *testing.T) {
	f := newFleet(t, 2)
	owners := map[string]int{}
	for i := 0; i < 16; i++ {
		id, shard := f.createSession(t, sessionBody)
		if !strings.HasPrefix(id, "r") || len(id) != 17 {
			t.Fatalf("minted id %q not of the r<16 hex> form", id)
		}
		if want := f.router.ring.Lookup(id); want != shard {
			t.Fatalf("session %s served by %s, ring says %s", id, shard, want)
		}
		owners[shard]++

		// Every follow-up request must land on the same shard.
		resp, err := http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %s: %d %s", id, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("X-Phasetune-Shard"); got != shard {
			t.Fatalf("step for %s hit %s, created on %s", id, got, shard)
		}
	}
	// 16 hashed ids across 2 shards: both must carry real load.
	for _, name := range f.names {
		if owners[name] == 0 {
			t.Fatalf("shard %s owns no sessions: %v", name, owners)
		}
	}

	// A client-assigned id passes through unchanged.
	id, _ := f.createSession(t, `{"id":"mine-1","scenario":"b","strategy":"GP-discontinuous","seed":5,"tiles":4}`)
	if id != "mine-1" {
		t.Fatalf("client-assigned id came back as %q", id)
	}
}

// TestMintedIDsUniqueAcrossRouters: a second router built from the same
// options over the same fleet, as a restarted router or a second front
// door is, mints ids the first never gave out. Were the id stream a
// function of the seed alone, the second router's first create would
// replay the first router's session to a new caller (201,
// Idempotency-Replayed), or answer 409 for another body.
func TestMintedIDsUniqueAcrossRouters(t *testing.T) {
	f := newFleet(t, 2)
	first, _ := f.createSession(t, sessionBody)

	rt, err := New(f.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt)
	t.Cleanup(front.Close)
	resp, err := http.Post(front.URL+"/v1/sessions", "application/json", strings.NewReader(sessionBody))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || resp.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("second router's create: %d replayed=%q %s",
			resp.StatusCode, resp.Header.Get("Idempotency-Replayed"), raw)
	}
	var second struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if second.ID == first {
		t.Fatalf("both routers minted %s", first)
	}

	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		seen[f.router.mintID()] = true
	}
	for i := 0; i < 1000; i++ {
		if id := rt.mintID(); seen[id] {
			t.Fatalf("second router's mint %d repeats %s", i, id)
		}
	}
}

// TestRouterRejectsNonStringID: a create whose id is not a JSON string
// is a bad request at the router, as it is at a worker; the router
// must not mint an id over it.
func TestRouterRejectsNonStringID(t *testing.T) {
	f := newFleet(t, 2)
	for _, body := range []string{
		`{"id":5,"scenario":"b","tiles":4}`,
		`{"id":true,"scenario":"b","tiles":4}`,
		`{"id":{"n":1},"scenario":"b","tiles":4}`,
	} {
		for _, base := range []string{f.front.URL, f.workers[0].URL} {
			resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("create %s at %s: %d %s, want 400", body, base, resp.StatusCode, raw)
			}
		}
	}
	for i, e := range f.engines {
		if n := e.Metrics().SessionsTotal; n != 0 {
			t.Fatalf("worker %d holds %d sessions after rejected creates", i, n)
		}
	}
	// A null id reads as no id at both hops: the router mints one.
	if id, _ := f.createSession(t, `{"id":null,"scenario":"b","tiles":4}`); !strings.HasPrefix(id, "r") {
		t.Fatalf("null id came back as %q, want a minted one", id)
	}
}

func TestRouterIdempotencyForward(t *testing.T) {
	f := newFleet(t, 2)
	id, _ := f.createSession(t, sessionBody)

	step := func() (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodPost, f.front.URL+"/v1/sessions/"+id+"/step", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "retry-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step: %d %s", resp.StatusCode, raw)
		}
		return resp, raw
	}
	first, firstBody := step()
	if first.Header.Get("Idempotency-Replayed") == "true" {
		t.Fatal("first keyed step marked replayed")
	}
	second, secondBody := step()
	if second.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatal("retry not replayed: the key did not survive the proxy hop")
	}
	if string(firstBody) != string(secondBody) {
		t.Fatalf("replay differs:\n%s\nvs\n%s", firstBody, secondBody)
	}
}

func TestRouterStreamThroughProxy(t *testing.T) {
	f := newFleet(t, 2)
	id, _ := f.createSession(t, sessionBody)
	if resp, err := http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Post(f.front.URL+"/v1/sessions/"+id+"/stream-step",
		"application/json", strings.NewReader(`{"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream-step: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q did not survive the proxy", ct)
	}
	steps, done := 0, false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var probe struct {
			Done  *bool   `json:"done"`
			Error *string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
			t.Fatalf("bad ndjson line %q: %v", sc.Text(), err)
		}
		switch {
		case probe.Error != nil:
			t.Fatalf("in-band error: %s", *probe.Error)
		case probe.Done != nil:
			done = true
		default:
			steps++
		}
	}
	if !done || steps != 3 {
		t.Fatalf("streamed %d steps through proxy, done=%v", steps, done)
	}
}

func TestRouterSweepKeyRouting(t *testing.T) {
	f := newFleet(t, 2)
	sweep := func(key string) (shard string, replayed bool) {
		req, err := http.NewRequest(http.MethodPost, f.front.URL+"/v1/sweep",
			strings.NewReader(`{"scenario":"b","tiles":4,"reps":1,"seed":3}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: %d %s", resp.StatusCode, raw)
		}
		return resp.Header.Get("X-Phasetune-Shard"), resp.Header.Get("Idempotency-Replayed") == "true"
	}
	s1, r1 := sweep("sweep-key-9")
	s2, r2 := sweep("sweep-key-9")
	if s1 != s2 {
		t.Fatalf("keyed sweep moved shards: %s then %s", s1, s2)
	}
	if r1 || !r2 {
		t.Fatalf("replay flags: first=%v second=%v", r1, r2)
	}
}

// TestRouterFailover is the failover sequence end to end: a worker
// dies, the router degrades, the worker's engine comes back on a new
// address (journal recovery in production; the same engine instance
// here), /admin/shards repoints the name, and the session continues on
// the shard the ring always said owned it.
func TestRouterFailover(t *testing.T) {
	f := newFleet(t, 2)
	id, shard := f.createSession(t, sessionBody)

	var victim int
	for i, name := range f.names {
		if name == shard {
			victim = i
		}
	}
	f.workers[victim].Close() // the crash
	f.router.CheckNow()

	// Degraded fleet: /readyz refuses, the dead shard's sessions bounce
	// with a retryable status, the surviving shard still serves.
	resp, err := http.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz with a dead shard: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded readyz without Retry-After")
	}
	resp, err = http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("step on dead shard: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("dead-shard rejection without Retry-After")
	}

	// Recovery: same engine state, new listener, repoint the name.
	replacement := httptest.NewServer(engine.NewServer(f.engines[victim]))
	t.Cleanup(replacement.Close)
	body, _ := json.Marshal(Shard{Name: shard, Addr: replacement.URL})
	resp, err = http.Post(f.front.URL+"/admin/shards", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repoint: %d %s", resp.StatusCode, raw)
	}

	resp, err = http.Get(f.front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after repoint: %d", resp.StatusCode)
	}
	// The router logged the shard going down, then coming back up.
	var transitions []string
	for _, ev := range f.router.events.Events() {
		if ev.Fields["shard"] == shard {
			transitions = append(transitions, ev.Type)
		}
	}
	if got := strings.Join(transitions, " "); got != "shard.down shard.up" {
		t.Fatalf("events for %s: %q, want shard.down then shard.up", shard, got)
	}
	resp, err = http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("step after failover: %d %s", resp.StatusCode, raw)
	}

	// Repointing an unknown name is refused: membership is fixed.
	resp, err = http.Post(f.front.URL+"/admin/shards", "application/json",
		strings.NewReader(`{"name":"nope","addr":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown-shard repoint: %d", resp.StatusCode)
	}
}

func TestRouterMetricsAggregation(t *testing.T) {
	f := newFleet(t, 2)
	id, _ := f.createSession(t, sessionBody)
	resp, err := http.Post(f.front.URL+"/v1/sessions/"+id+"/step", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	text := string(raw)
	for _, want := range []string{`shard="w0"`, `shard="w1"`, "phasetune_router_proxied_total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("aggregated metrics missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "# HELP phasetune_workers "); n != 1 {
		t.Fatalf("HELP phasetune_workers appears %d times, want deduplicated to 1", n)
	}
}

func TestInjectShardLabel(t *testing.T) {
	cases := map[string]string{
		"phasetune_workers 4":             `phasetune_workers{shard="w0"} 4`,
		`m{a="b"} 1`:                      `m{shard="w0",a="b"} 1`,
		`m{} 2`:                           `m{shard="w0"} 2`,
		`m{a="b",c="d"} 3.5e-09`:          `m{shard="w0",a="b",c="d"} 3.5e-09`,
		"phasetune_cache_hits_total 12 7": `phasetune_cache_hits_total{shard="w0"} 12 7`,
	}
	for in, want := range cases {
		if got := injectShardLabel(in, "w0"); got != want {
			t.Fatalf("injectShardLabel(%q) = %q, want %q", in, got, want)
		}
	}
}
