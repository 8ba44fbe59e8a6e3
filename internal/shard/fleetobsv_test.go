package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/obsv/obsvtest"
)

// sharedNanos is one monotonic fake clock for a whole in-process
// fleet: every process's telemetry and event log reads it, so merged
// event logs order causally and every trace recorder still gets its
// own distinct base (it reads the clock at construction).
func sharedNanos() func() int64 {
	var n atomic.Int64
	return func() int64 { return n.Add(1e6) }
}

// TestFleetTraceStitchedAcrossProcesses is the tracing acceptance
// criterion, in process: one traced stream-step through the two-shard
// router must leave spans in at least three distinct processes —
// router, session owner, and the owner's replication follower — all
// under the client's trace id, stitched by GET /v1/fleet/trace into
// one flow-linked Chrome trace.
func TestFleetTraceStitchedAcrossProcesses(t *testing.T) {
	f := newReplFleet(t, 2, sharedNanos())

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

	const traceID = "feedfacefeedface"
	req, err := http.NewRequest(http.MethodPost,
		f.front.URL+"/v1/sessions/"+created.ID+"/stream-step", strings.NewReader(`{"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.TraceHeader, traceID+"-00000000000000aa")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sraw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("traced stream-step: %d %s", sresp.StatusCode, sraw)
	}

	// The follower's root span closes just after the owner's ship ack
	// returns, so poll briefly instead of racing it.
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for {
		fresp, err := http.Get(f.front.URL + "/v1/fleet/trace?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		fraw, _ := io.ReadAll(fresp.Body)
		fresp.Body.Close()
		if fresp.StatusCode == http.StatusOK {
			procs, verr := obsvtest.ValidateFleetTrace(fraw, 3)
			if verr == nil {
				t.Logf("fleet trace: %d processes, %d bytes", procs, len(fraw))
				return
			}
			lastErr = verr
		} else {
			lastErr = fmt.Errorf("status %d: %s", fresp.StatusCode, fraw)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet trace never stitched 3 processes: %v", lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestUntracedLoadLeavesNoSpans: step, batch-step and stream-step
// calls without a trace context leave no span in any process — router,
// owner or replication follower — and one traced call afterwards still
// stitches all three.
func TestUntracedLoadLeavesNoSpans(t *testing.T) {
	f := newReplFleet(t, 2, sharedNanos())
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
	for _, call := range []struct{ route, body string }{
		{"step", ""}, {"batch-step", `{"k":2}`}, {"stream-step", `{"k":2}`},
	} {
		if resp, raw := f.post(t, "/v1/sessions/"+id+"/"+call.route, call.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("untraced %s: %d %s", call.route, resp.StatusCode, raw)
		}
	}
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, w := range f.workers {
		if code := status(w.URL + "/v1/trace?session=" + id); code != http.StatusNotFound {
			t.Fatalf("worker %s holds spans of the untraced session: status %d", f.names[i], code)
		}
		if ids := f.engines[i].Telemetry().Trace.Sessions(); len(ids) != 0 {
			t.Fatalf("worker %s recorded spans for %v (replica appends included)", f.names[i], ids)
		}
	}
	if code := status(f.front.URL + "/v1/fleet/trace?session=" + id); code != http.StatusNotFound {
		t.Fatalf("fleet trace of the untraced session: status %d, want 404", code)
	}
	if ids := f.router.tracer.Sessions(); len(ids) != 0 {
		t.Fatalf("router recorded spans for %v", ids)
	}

	const traceID = "0123456789abcdef"
	req, err := http.NewRequest(http.MethodPost, f.front.URL+"/v1/sessions/"+id+"/step", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obsv.TraceHeader, traceID+"-00000000000000aa")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, sresp.Body)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("traced step: %d", sresp.StatusCode)
	}
	// The follower's root span closes just after the owner's ship ack
	// returns, so poll briefly instead of racing it.
	var lastErr error
	for deadline := time.Now().Add(10 * time.Second); ; {
		fresp, err := http.Get(f.front.URL + "/v1/fleet/trace?trace=" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		fraw, _ := io.ReadAll(fresp.Body)
		fresp.Body.Close()
		if fresp.StatusCode == http.StatusOK {
			if _, lastErr = obsvtest.ValidateFleetTrace(fraw, 3); lastErr == nil {
				return
			}
		} else {
			lastErr = fmt.Errorf("status %d: %s", fresp.StatusCode, fraw)
		}
		if time.Now().After(deadline) {
			t.Fatalf("traced step after the untraced load never stitched 3 processes: %v", lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFleetTraceBadRequests pins the endpoint's error contract: no
// parameter is a 400, an unknown trace id is a 404.
func TestFleetTraceBadRequests(t *testing.T) {
	f := newReplFleet(t, 2, sharedNanos())
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/fleet/trace", http.StatusBadRequest},
		{"/v1/fleet/trace?trace=0000000000000000", http.StatusNotFound},
	} {
		resp, err := http.Get(f.front.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestFleetEventsCausalChain drives the in-process failover story and
// asserts the fleet-merged event log tells it in causal order: the
// router sees the owner die (shard.down), the supervisor promotes the
// session on its follower at a bumped generation (session.promoted),
// and the revived zombie's stale-generation ship is refused by the
// follower's fence (repl.fenced).
func TestFleetEventsCausalChain(t *testing.T) {
	f := newReplFleet(t, 3, sharedNanos())

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
	for i := 0; i < 3; i++ {
		if resp, raw := f.post(t, "/v1/sessions/"+id+"/step", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: %d %s", i, resp.StatusCode, raw)
		}
	}

	var victim int
	for i, name := range f.names {
		if name == owner {
			victim = i
		}
	}
	f.workers[victim].Close()
	f.router.CheckNow()
	f.router.SuperviseNow(context.Background())

	if resp, raw := f.post(t, "/v1/sessions/"+id+"/step", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("step after failover: %d %s", resp.StatusCode, raw)
	}

	// The zombie: the dead owner's engine is still alive in memory; its
	// next commit ships at the old generation and the follower fences it.
	if _, _, err := f.engines[victim].StepIdem(context.Background(), id, ""); err == nil ||
		!strings.Contains(err.Error(), "fenced out") {
		t.Fatalf("zombie owner's commit: %v, want fenced out", err)
	}

	eresp, err := http.Get(f.front.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	eraw, _ := io.ReadAll(eresp.Body)
	eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		t.Fatalf("fleet events: %d %s", eresp.StatusCode, eraw)
	}
	var elog struct {
		Events []events.Event `json:"events"`
	}
	if err := json.Unmarshal(eraw, &elog); err != nil {
		t.Fatal(err)
	}
	idxDown, idxPromoted, idxFenced := -1, -1, -1
	for i, ev := range elog.Events {
		switch {
		case idxDown < 0 && ev.Type == "shard.down" && ev.Fields["shard"] == owner:
			idxDown = i
		case idxPromoted < 0 && ev.Type == "session.promoted" && ev.Session == id:
			if gen, ok := ev.Fields["gen"].(float64); !ok || gen < 2 {
				t.Fatalf("session.promoted without a bumped generation: %+v", ev)
			}
			idxPromoted = i
		case idxFenced < 0 && ev.Type == "repl.fenced" && ev.Session == id:
			idxFenced = i
		}
	}
	if idxDown < 0 || idxPromoted < 0 || idxFenced < 0 {
		t.Fatalf("causal chain incomplete: shard.down@%d session.promoted@%d repl.fenced@%d in\n%s",
			idxDown, idxPromoted, idxFenced, eraw)
	}
	if !(idxDown < idxPromoted && idxPromoted < idxFenced) {
		t.Fatalf("causal chain out of order: shard.down@%d session.promoted@%d repl.fenced@%d",
			idxDown, idxPromoted, idxFenced)
	}
}

// TestFleetMetricsSummedFamilies: the router's /metrics carries
// fleet-summed phasetune_fleet_* families whose values equal the sum
// of the per-shard samples they rename.
func TestFleetMetricsSummedFamilies(t *testing.T) {
	f := newReplFleet(t, 2, sharedNanos())
	for i := 0; i < 4; i++ {
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
		if resp, raw := f.post(t, "/v1/sessions/"+created.ID+"/step", ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("step: %d %s", resp.StatusCode, raw)
		}
	}

	mresp, err := http.Get(f.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	fams, err := obsvtest.ParsePrometheus(mraw)
	if err != nil {
		t.Fatalf("aggregated exposition does not parse: %v", err)
	}

	const perShard = "phasetune_cache_requests_misses_total"
	const fleet = "phasetune_fleet_cache_requests_misses_total"
	shardSum := 0.0
	for _, s := range fams[perShard].Samples {
		shardSum += s.Value
	}
	if shardSum == 0 {
		t.Fatalf("no per-shard %s samples:\n%s", perShard, mraw)
	}
	ff, ok := fams[fleet]
	if !ok {
		t.Fatalf("aggregated metrics missing fleet family %s", fleet)
	}
	fleetSum := 0.0
	for _, s := range ff.Samples {
		fleetSum += s.Value
	}
	if fleetSum != shardSum {
		t.Fatalf("fleet family %s = %v, per-shard sum = %v", fleet, fleetSum, shardSum)
	}

	// Histograms merge too: the fleet eval-latency family must carry
	// bucket/sum/count samples and declare itself a histogram.
	hf, ok := fams["phasetune_fleet_eval_latency_seconds"]
	if !ok {
		t.Fatal("aggregated metrics missing fleet histogram phasetune_fleet_eval_latency_seconds")
	}
	if hf.Type != "histogram" {
		t.Fatalf("fleet eval-latency family typed %q, want histogram", hf.Type)
	}
}

// TestParseSample pins the exposition-line scanner the fleet merge is
// built on, including quote-aware label parsing.
func TestParseSample(t *testing.T) {
	for _, tc := range []struct {
		line   string
		name   string
		labels string
		value  float64
		ok     bool
	}{
		{`phasetune_x_total 5`, "phasetune_x_total", "", 5, true},
		{`phasetune_x_total{shard="w0"} 2.5`, "phasetune_x_total", `shard="w0"`, 2.5, true},
		{`phasetune_x{a="b,c",d="}\""} 1`, "phasetune_x", `a="b,c",d="}\""`, 1, true},
		{`phasetune_x_bucket{le="+Inf"} 7`, "phasetune_x_bucket", `le="+Inf"`, 7, true},
		{`# HELP phasetune_x help`, "", "", 0, false},
		{``, "", "", 0, false},
		{`phasetune_x notanumber`, "", "", 0, false},
		{`phasetune_x{unterminated 1`, "", "", 0, false},
	} {
		name, labels, value, ok := parseSample(tc.line)
		if ok != tc.ok {
			t.Fatalf("parseSample(%q) ok=%v, want %v", tc.line, ok, tc.ok)
		}
		if !ok {
			continue
		}
		if name != tc.name || labels != tc.labels || value != tc.value {
			t.Fatalf("parseSample(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.line, name, labels, value, tc.name, tc.labels, tc.value)
		}
	}
}

// traceHeaderRe is the X-Phasetune-Trace wire format.
var traceHeaderRe = regexp.MustCompile(`^[0-9a-f]{16}-[0-9a-f]{16}$`)

// TestProxyTraceHeaderDisabledAndEnabled: a router without a trace
// recorder adds no X-Phasetune-Trace header to proxied requests; with
// one, a headerless request still reaches the shard with no header and
// the router records nothing, while a traced request keeps its inbound
// trace id with a new hop span id.
func TestProxyTraceHeaderDisabledAndEnabled(t *testing.T) {
	var mu sync.Mutex
	var got []string
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			mu.Lock()
			got = append(got, r.Header.Get(obsv.TraceHeader))
			mu.Unlock()
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("{}"))
	}))
	defer backend.Close()
	lastHeader := func() string {
		mu.Lock()
		defer mu.Unlock()
		return got[len(got)-1]
	}

	newRouter := func(tr *obsv.TraceRecorder) *httptest.Server {
		rt, err := New(Options{
			Shards:         []Shard{{Name: "w0", Addr: backend.URL}},
			Seed:           3,
			HealthInterval: time.Hour,
			Trace:          tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		front := httptest.NewServer(rt)
		t.Cleanup(front.Close)
		return front
	}
	step := func(front *httptest.Server, inbound string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/sessions/s1/step", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if inbound != "" {
			req.Header.Set(obsv.TraceHeader, inbound)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("proxied step: %d", resp.StatusCode)
		}
	}

	// Tracing disabled: no header minted; an inbound header still passes
	// through untouched (copyHeaders forwards it).
	off := newRouter(nil)
	step(off, "")
	if h := lastHeader(); h != "" {
		t.Fatalf("tracing-disabled proxy sent %q, want no header", h)
	}
	step(off, "00000000000000ab-00000000000000cd")
	if h := lastHeader(); h != "00000000000000ab-00000000000000cd" {
		t.Fatalf("tracing-disabled proxy rewrote the inbound header to %q", h)
	}

	// Tracing enabled: headerless requests stay untraced; traced ones
	// keep their trace id but get a fresh hop span id.
	rec := obsv.NewTraceRecorder(sharedNanos())
	on := newRouter(rec)
	step(on, "")
	if h := lastHeader(); h != "" {
		t.Fatalf("tracing proxy sent %q for a headerless request, want no header", h)
	}
	if ids := rec.Sessions(); len(ids) != 0 {
		t.Fatalf("tracing proxy recorded a headerless request: %v", ids)
	}
	step(on, "00000000000000ab-00000000000000cd")
	if h := lastHeader(); !traceHeaderRe.MatchString(h) {
		t.Fatalf("traced proxy sent %q, want a trace context", h)
	}
	h := lastHeader()
	if !strings.HasPrefix(h, "00000000000000ab-") {
		t.Fatalf("traced proxy dropped the inbound trace id: %q", h)
	}
	if h == "00000000000000ab-00000000000000cd" {
		t.Fatalf("traced proxy reused the inbound span id instead of minting a hop span")
	}
}
