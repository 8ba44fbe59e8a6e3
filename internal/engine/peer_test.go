package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"phasetune/internal/obsv"
)

// httpPeerLookup is the test-side mirror of the shard peer protocol:
// probe a peer's /v1/cache/peek on a local miss.
func httpPeerLookup(base string) PeerLookup {
	return func(ctx context.Context, key CacheKey) (float64, bool) {
		u := fmt.Sprintf("%s/v1/cache/peek?fp=%s&epoch=%d&action=%d",
			base, url.QueryEscape(key.Fingerprint), key.Epoch, key.Action)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			return 0, false
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, false
		}
		var out cachePeekResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || !out.Found || out.Value == nil {
			return 0, false
		}
		return *out.Value, true
	}
}

// TestPeerCacheLookup: a value evaluated on shard A is a peer hit on
// shard B — B never runs the simulation, the hit/miss/share counters
// account for it, and B's observation log stays bit-identical to a
// shard that computed everything locally.
func TestPeerCacheLookup(t *testing.T) {
	// An epoch-less script: AdvanceEpochIdem drops superseded cache epochs,
	// which would make the warmed peer legitimately miss — this test
	// wants every probe answerable.
	flatScript := func(t *testing.T, e *Engine, id string) SessionResult {
		t.Helper()
		if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.BatchStepIdem(context.Background(), id, 3, ""); err != nil {
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

	telA := obsv.NewTelemetry(nil)
	a := NewWithOptions(Options{Workers: 2, Telemetry: telA})
	cfg := SessionConfig{ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 42, Tiles: 4}
	sa, err := a.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRes := flatScript(t, a, sa.id) // warms A's cache along the exact trajectory

	srvA := httptest.NewServer(NewServer(a))
	defer srvA.Close()

	telB := obsv.NewTelemetry(nil)
	b := NewWithOptions(Options{Workers: 2, Telemetry: telB})
	b.SetPeerLookup(httpPeerLookup(srvA.URL))
	sb, err := b.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peerRes := flatScript(t, b, sb.id)
	sameResult(t, "peer-served vs local", refRes, peerRes)

	if hits := telB.PeerHits.Value(); hits == 0 {
		t.Fatal("no peer hits recorded on B")
	}
	if shares := telA.PeerShares.Value(); shares == 0 {
		t.Fatal("no peer shares recorded on A")
	}
	// Every value B needed existed on A (same trajectory), so B should
	// never have simulated: all its cache misses resolved via peers.
	if misses := telB.PeerMisses.Value(); misses != 0 {
		t.Fatalf("B computed %v evaluations locally despite a fully warmed peer", misses)
	}

	// A peer returning nothing falls back to local compute and counts a
	// miss.
	c := NewWithOptions(Options{Workers: 1, Telemetry: obsv.NewTelemetry(nil)})
	c.SetPeerLookup(func(ctx context.Context, key CacheKey) (float64, bool) { return 0, false })
	scc, err := c.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	localRes := flatScript(t, c, scc.id)
	sameResult(t, "empty-peer fallback", refRes, localRes)
	if c.tel.PeerMisses.Value() == 0 {
		t.Fatal("no peer misses recorded on fallback engine")
	}
}

// TestCachePeekEndpoint exercises the peek route directly: parameter
// validation, a miss, and a bit-exact hit.
func TestCachePeekEndpoint(t *testing.T) {
	e := New(1)
	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()

	get := func(q string) (int, cachePeekResponse) {
		resp, err := http.Get(srv.URL + "/v1/cache/peek" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out cachePeekResponse
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	if code, _ := get(""); code != http.StatusBadRequest {
		t.Fatalf("missing params: %d", code)
	}
	if code, _ := get("?fp=x&epoch=zero&action=1"); code != http.StatusBadRequest {
		t.Fatalf("bad epoch: %d", code)
	}
	if code, out := get("?fp=nosuch&epoch=0&action=3"); code != http.StatusOK || out.Found {
		t.Fatalf("miss: code=%d found=%v", code, out.Found)
	}

	key := CacheKey{Fingerprint: "fp-test", Epoch: 2, Action: 7}
	e.Cache().Prime(key, 123.4567891011)
	code, out := get("?fp=fp-test&epoch=2&action=7")
	if code != http.StatusOK || !out.Found || out.Value == nil {
		t.Fatalf("hit: code=%d out=%+v", code, out)
	}
	if *out.Value != 123.4567891011 {
		t.Fatalf("peek value %v not bit-exact", *out.Value)
	}
	if e.tel != nil {
		t.Fatal("test engine unexpectedly carries telemetry")
	}
}
