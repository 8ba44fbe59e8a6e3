package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"phasetune/internal/obsv/obsvtest"
)

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// scrape GETs /metrics and parses its Prometheus exposition.
func scrape(t *testing.T, base string) map[string]*obsvtest.Family {
	t.Helper()
	resp, body := get(t, base+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	fams, err := obsvtest.ParsePrometheus(body)
	if err != nil {
		t.Fatalf("metrics exposition: %v", err)
	}
	return fams
}

// metricValue returns the one sample of family name carrying labels
// (nil matches an unlabeled sample).
func metricValue(t *testing.T, fams map[string]*obsvtest.Family, name string, labels map[string]string) float64 {
	t.Helper()
	if f := fams[name]; f != nil {
		for _, s := range f.Samples {
			if maps.Equal(s.Labels, labels) {
				return s.Value
			}
		}
	}
	t.Fatalf("metrics carry no %s%v sample", name, labels)
	return 0
}

func TestHTTPSessionLifecycle(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(4)))
	defer srv.Close()

	var created createSessionResponse
	resp := postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 42, Tiles: 4,
	}, &created)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	if created.ID == "" || created.Nodes != 14 || created.MinNodes != 2 {
		t.Fatalf("create response %+v", created)
	}

	base := srv.URL + "/v1/sessions/" + created.ID
	var step StepResult
	for i := 0; i < 3; i++ {
		resp = postJSON(t, base+"/step", struct{}{}, &step)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step status %d", resp.StatusCode)
		}
		if step.Iter != i || step.Action < 1 || step.Duration <= 0 {
			t.Fatalf("step %d: %+v", i, step)
		}
	}

	var batch batchStepResponse
	resp = postJSON(t, base+"/batch-step", batchStepRequest{K: 3}, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch-step status %d", resp.StatusCode)
	}
	if len(batch.Steps) != 3 {
		t.Fatalf("batch returned %d steps, want 3", len(batch.Steps))
	}

	var res SessionResult
	resp = getJSON(t, base, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d", resp.StatusCode)
	}
	if res.Iterations != 6 || res.BestAction < 1 || res.Total <= 0 {
		t.Fatalf("result %+v", res)
	}

	var ep map[string]int
	resp = postJSON(t, base+"/advance-epoch", struct{}{}, &ep)
	if resp.StatusCode != http.StatusOK || ep["epoch"] != 1 {
		t.Fatalf("advance-epoch status %d, body %v", resp.StatusCode, ep)
	}

	fams := scrape(t, srv.URL)
	if n, iters := metricValue(t, fams, "phasetune_sessions", nil),
		metricValue(t, fams, "phasetune_iterations_total", nil); n != 1 || iters != 6 {
		t.Fatalf("metrics: %v sessions, %v iterations", n, iters)
	}
	if metricValue(t, fams, "phasetune_cache_hits_total", nil)+
		metricValue(t, fams, "phasetune_cache_misses_total", nil) == 0 {
		t.Fatal("metrics carry no cache accounting")
	}
	if ep := metricValue(t, fams, "phasetune_session_epoch",
		map[string]string{"session": created.ID, "strategy": "DC"}); ep != 1 {
		t.Fatalf("session epoch in metrics = %v, want 1", ep)
	}
}

func TestHTTPSweep(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(4)))
	defer srv.Close()

	var res SweepResult
	resp := postJSON(t, srv.URL+"/v1/sweep", sweepRequest{Scenario: "b", Tiles: 4}, &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d", resp.StatusCode)
	}
	if len(res.Points) != 13 { // actions 2..14
		t.Fatalf("sweep returned %d points, want 13", len(res.Points))
	}
	if res.BestAction < 2 || res.BestAction > 14 || res.BestMakespan <= 0 {
		t.Fatalf("sweep best %d @ %v", res.BestAction, res.BestMakespan)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(1)))
	defer srv.Close()

	var e map[string]string
	if resp := postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{Scenario: "zz"}, &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario status %d (%v)", resp.StatusCode, e)
	}
	if resp := postJSON(t, srv.URL+"/v1/sessions/nope/step", struct{}{}, &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/v1/sessions/nope", &e); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing result status %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status %d", resp.StatusCode)
	}
}

// TestHTTPTilesOutOfRange: both routes that take a tile count answer
// 400 for one the scenario's workload does not have.
func TestHTTPTilesOutOfRange(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(1)))
	defer srv.Close()

	for _, tiles := range []int{-5, 102, 1000000} {
		var e map[string]string
		if resp := postJSON(t, srv.URL+"/v1/sessions",
			createSessionRequest{Scenario: "b", Tiles: tiles}, &e); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("create tiles=%d: status %d (%v), want 400", tiles, resp.StatusCode, e)
		}
		if resp := postJSON(t, srv.URL+"/v1/sweep",
			sweepRequest{Scenario: "b", Tiles: tiles}, &e); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sweep tiles=%d: status %d (%v), want 400", tiles, resp.StatusCode, e)
		}
	}
}

// TestHTTPConcurrentClients drives several remote sessions at once
// through the real HTTP stack — the service-shaped version of the
// shared-cache test, and a race-detector workout for the full path.
func TestHTTPConcurrentClients(t *testing.T) {
	srv := httptest.NewServer(NewServer(New(4)))
	defer srv.Close()

	const clients = 4
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var created createSessionResponse
			postJSON(t, srv.URL+"/v1/sessions", createSessionRequest{
				Scenario: "b", Strategy: "UCB", Seed: int64(cl), Tiles: 4,
			}, &created)
			for i := 0; i < 6; i++ {
				var step StepResult
				resp := postJSON(t, fmt.Sprintf("%s/v1/sessions/%s/step", srv.URL, created.ID), struct{}{}, &step)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d step status %d", cl, resp.StatusCode)
					return
				}
			}
		}(cl)
	}
	wg.Wait()

	fams := scrape(t, srv.URL)
	if n, iters := metricValue(t, fams, "phasetune_sessions", nil),
		metricValue(t, fams, "phasetune_iterations_total", nil); n != clients || iters != clients*6 {
		t.Fatalf("metrics after concurrent clients: %v sessions, %v iterations", n, iters)
	}
}
