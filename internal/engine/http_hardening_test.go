package engine

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postRaw sends body verbatim — the hardening tests need malformed
// payloads that json.Marshal could never produce.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestHTTPBodyHardening covers the strict-decoding contract on every
// JSON-accepting endpoint: bounded size (413), unknown fields rejected,
// trailing garbage rejected, malformed JSON rejected, empty bodies
// decode as defaults.
func TestHTTPBodyHardening(t *testing.T) {
	e := New(2)
	s := NewServerWithOptions(e, ServerOptions{MaxBodyBytes: 512})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var created createSessionResponse
	if resp := postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Tiles: 4,
	}, &created); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	batchURL := srv.URL + "/v1/sessions/" + created.ID + "/batch-step"

	cases := []struct {
		name string
		url  string
		body string
		want int
	}{
		{"create unknown field", srv.URL + "/v1/sessions", `{"scenario":"b","bogus":1}`, http.StatusBadRequest},
		{"create malformed", srv.URL + "/v1/sessions", `{"scenario":`, http.StatusBadRequest},
		{"create wrong type", srv.URL + "/v1/sessions", `{"scenario":7}`, http.StatusBadRequest},
		{"create oversized", srv.URL + "/v1/sessions", `{"strategy":"` + strings.Repeat("x", 600) + `"}`, http.StatusRequestEntityTooLarge},
		{"create trailing garbage", srv.URL + "/v1/sessions", `{"scenario":"b","tiles":4} {"k":2}`, http.StatusBadRequest},
		{"batch unknown field", batchURL, `{"k":2,"speculate":true}`, http.StatusBadRequest},
		{"batch array not object", batchURL, `[1,2,3]`, http.StatusBadRequest},
		{"batch empty body defaults", batchURL, ``, http.StatusOK},
		{"sweep unknown field", srv.URL + "/v1/sweep", `{"scenario":"b","tiles":4,"parallel":true}`, http.StatusBadRequest},
		{"sweep oversized", srv.URL + "/v1/sweep", `{"scenario":"` + strings.Repeat("b", 600) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if resp := postRaw(t, tc.url, tc.body); resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestHTTPBackpressure: past the admission high-water mark,
// evaluation-bearing requests get an immediate 429 with Retry-After;
// once a slot frees the same request succeeds.
func TestHTTPBackpressure(t *testing.T) {
	e := New(1)
	s := NewServerWithOptions(e, ServerOptions{MaxInFlight: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Tiles: 4,
	}, &created)
	stepURL := srv.URL + "/v1/sessions/" + created.ID + "/step"

	// Occupy the single admission slot directly (same package).
	s.gate <- struct{}{}
	resp := postRaw(t, stepURL, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	<-s.gate

	if resp := postRaw(t, stepURL, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPHealthReady: liveness is unconditional, readiness follows
// the draining flag and the engine's closed state.
func TestHTTPHealthReady(t *testing.T) {
	e := New(1)
	s := NewServerWithOptions(e, ServerOptions{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if err := resp.Body.Close(); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}

	check("/healthz", http.StatusOK)
	check("/readyz", http.StatusOK)

	s.SetDraining(true)
	check("/healthz", http.StatusOK) // liveness survives the drain
	check("/readyz", http.StatusServiceUnavailable)
	s.SetDraining(false)
	check("/readyz", http.StatusOK)

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	check("/readyz", http.StatusServiceUnavailable)

	// Operations against a closed engine answer 503, not 500.
	if resp := postRaw(t, srv.URL+"/v1/sessions", `{"scenario":"b","tiles":4}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create on closed engine: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPEvalTimeout: with the pool saturated, a request bounded by
// EvalTimeout gives up waiting for a slot and surfaces 504.
func TestHTTPEvalTimeout(t *testing.T) {
	e := New(1)
	s := NewServerWithOptions(e, ServerOptions{EvalTimeout: 20 * time.Millisecond})
	srv := httptest.NewServer(s)
	defer srv.Close()

	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Tiles: 4,
	}, &created)

	release := saturatePool(t, e)
	defer release()

	resp := postRaw(t, srv.URL+"/v1/sessions/"+created.ID+"/step", "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out step status %d, want 504", resp.StatusCode)
	}
}

// TestHTTPBatchWidthBounded: a batch width above the session's action
// count answers 400 on both batch routes — the driver would otherwise
// size its proposal slice by the request's k, and an allocation that
// large ends the process — and the server keeps serving afterwards.
func TestHTTPBatchWidthBounded(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(1)))
	defer srv.Close()

	var created createSessionResponse
	postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "a", Strategy: "DC", Seed: 1, Tiles: 4,
	}, &created)
	base := srv.URL + "/v1/sessions/" + created.ID
	actions := created.Nodes - created.MinNodes + 1

	for i, route := range []string{"/batch-step", "/stream-step"} {
		for _, k := range []int{1 << 40, actions + 1} {
			var body map[string]string
			resp := postJSON(t, base+route, batchStepRequest{K: k}, &body)
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"], "outside [") {
				t.Fatalf("%s k=%d: status %d, body %v; want 400 naming the bound", route, k, resp.StatusCode, body)
			}
		}
		var step StepResult
		if resp := postJSON(t, base+"/step", struct{}{}, &step); resp.StatusCode != http.StatusOK || step.Iter != i {
			t.Fatalf("step after oversized %s: status %d, %+v", route, resp.StatusCode, step)
		}
	}

	// The action count itself is a valid width.
	var batch batchStepResponse
	if resp := postJSON(t, base+"/batch-step", batchStepRequest{K: actions}, &batch); resp.StatusCode != http.StatusOK || len(batch.Steps) == 0 {
		t.Fatalf("batch-step k=%d: status %d, %d steps", actions, resp.StatusCode, len(batch.Steps))
	}
}
