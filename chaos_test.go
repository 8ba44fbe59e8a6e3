package phasetune_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasetune/internal/chaosnet"
	"phasetune/internal/client"
	"phasetune/internal/engine"
	"phasetune/internal/faults"
	"phasetune/internal/fleet"
)

// The chaos acceptance test: run journaled tuning sessions against a
// real phasetune-serve process, SIGKILL it mid-batch-step, restart with
// -recover, and require every resumed trajectory — and the final best-n
// answers — to be bit-for-bit identical to an uninterrupted in-process
// reference run. This is the durability contract of the write-ahead
// journal verified end to end, at more than one worker count.

// chaosSession is one client's scripted session.
type chaosSession struct {
	strategy string
	seed     int64
	tiles    int
}

var chaosSessions = []chaosSession{
	{strategy: "GP-discontinuous", seed: 7, tiles: 4},
	{strategy: "UCB", seed: 8, tiles: 5},
	{strategy: "DC", seed: 9, tiles: 6},
}

// chaosScript is the per-session op sequence: a sequential step, a
// platform epoch change, and speculative batches. 13 iterations total.
var chaosScript = []string{"step", "batch3", "epoch", "batch3", "batch3", "batch3"}

// scriptStates returns the (iterations, epoch) state after each op
// prefix; recovery lands exactly on one of these boundaries.
func scriptStates() [][2]int {
	states := [][2]int{{0, 0}}
	it, ep := 0, 0
	for _, op := range chaosScript {
		switch op {
		case "step":
			it++
		case "batch3":
			it += 3
		case "epoch":
			ep++
		}
		states = append(states, [2]int{it, ep})
	}
	return states
}

// referenceResults runs every chaos session's full script on an
// in-process engine and returns the uninterrupted results by session
// index. The sessions use distinct tile counts, hence distinct cache
// fingerprints, so per-session trajectories do not depend on how the
// sessions interleave.
func referenceResults(t *testing.T) []engine.SessionResult {
	t.Helper()
	e := engine.New(4)
	out := make([]engine.SessionResult, len(chaosSessions))
	for i, cs := range chaosSessions {
		if _, err := e.CreateSession(engine.SessionConfig{
			ScenarioKey: "b", Strategy: cs.strategy, Seed: cs.seed, Tiles: cs.tiles,
		}); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("s%d", i+1)
		for _, op := range chaosScript {
			switch op {
			case "step":
				if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
					t.Fatal(err)
				}
			case "batch3":
				if _, _, err := e.BatchStepIdem(context.Background(), id, 3, ""); err != nil {
					t.Fatal(err)
				}
			case "epoch":
				if _, _, err := e.AdvanceEpochIdem(context.Background(), id, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := e.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// waitOutput polls the process output for substr. Recovery progress is
// printed after the listen line, so assertions on it must poll rather
// than read once.
func waitOutput(t *testing.T, p *fleet.Proc, substr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(p.Output(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("output never contained %q:\n%s", substr, p.Output())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func chaosPost(base, path string, body []byte, out any) (int, error) {
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func chaosResult(t *testing.T, base, id string) engine.SessionResult {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session %s: status %d", id, resp.StatusCode)
	}
	var res engine.SessionResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// runOp executes one script op over HTTP, returning the iterations it
// committed. Any transport error means the server is gone.
func runOp(base, id, op string) (int, error) {
	switch op {
	case "step":
		status, err := chaosPost(base, "/v1/sessions/"+id+"/step", []byte("{}"), nil)
		if err != nil {
			return 0, err
		}
		// Backpressure is a legitimate answer under chaos load: retry.
		if status == http.StatusTooManyRequests {
			return 0, nil
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("step status %d", status)
		}
		return 1, nil
	case "batch3":
		var out struct {
			Steps []json.RawMessage `json:"steps"`
		}
		status, err := chaosPost(base, "/v1/sessions/"+id+"/batch-step", []byte(`{"k":3}`), &out)
		if err != nil {
			return 0, err
		}
		if status == http.StatusTooManyRequests {
			return 0, nil
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("batch-step status %d", status)
		}
		return len(out.Steps), nil
	case "epoch":
		status, err := chaosPost(base, "/v1/sessions/"+id+"/advance-epoch", nil, nil)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("advance-epoch status %d", status)
		}
		return 0, nil
	}
	return 0, fmt.Errorf("unknown op %q", op)
}

// sameTrajectoryPrefix asserts got is bit-for-bit the first
// got.Iterations entries of the reference trajectory.
func sameTrajectoryPrefix(t *testing.T, tag string, got, ref engine.SessionResult) {
	t.Helper()
	if got.Iterations > ref.Iterations {
		t.Fatalf("%s: %d iterations exceed the reference's %d", tag, got.Iterations, ref.Iterations)
	}
	for i := 0; i < got.Iterations; i++ {
		if got.Actions[i] != ref.Actions[i] {
			t.Fatalf("%s iter %d: action %d, reference %d", tag, i, got.Actions[i], ref.Actions[i])
		}
		if math.Float64bits(got.Durations[i]) != math.Float64bits(ref.Durations[i]) {
			t.Fatalf("%s iter %d: duration %v, reference %v (not bit-identical)",
				tag, i, got.Durations[i], ref.Durations[i])
		}
	}
}

func sameFinal(t *testing.T, tag string, got, ref engine.SessionResult) {
	t.Helper()
	if got.Iterations != ref.Iterations || got.Epoch != ref.Epoch {
		t.Fatalf("%s: (%d iters, epoch %d), reference (%d, %d)",
			tag, got.Iterations, got.Epoch, ref.Iterations, ref.Epoch)
	}
	sameTrajectoryPrefix(t, tag, got, ref)
	if got.BestAction != ref.BestAction ||
		math.Float64bits(got.BestSim) != math.Float64bits(ref.BestSim) ||
		math.Float64bits(got.Total) != math.Float64bits(ref.Total) ||
		math.Float64bits(got.Regret) != math.Float64bits(ref.Regret) {
		t.Fatalf("%s: summary (best %d @ %v, total %v, regret %v), reference (best %d @ %v, total %v, regret %v)",
			tag, got.BestAction, got.BestSim, got.Total, got.Regret,
			ref.BestAction, ref.BestSim, ref.Total, ref.Regret)
	}
}

func TestChaosKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin, _, err := fleet.Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceResults(t)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			chaosRound(t, bin, workers, ref)
		})
	}
}

func chaosRound(t *testing.T, bin string, workers int, ref []engine.SessionResult) {
	dir := t.TempDir()
	args := []string{"-workers", fmt.Sprint(workers), "-journal-dir", dir}
	p1, err := fleet.Start(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Kill()

	// Create the sessions sequentially so IDs map deterministically.
	ids := make([]string, len(chaosSessions))
	for i, cs := range chaosSessions {
		body, err := json.Marshal(map[string]any{
			"scenario": "b", "strategy": cs.strategy, "seed": cs.seed, "tiles": cs.tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		var created struct {
			ID string `json:"id"`
		}
		status, err := chaosPost(p1.URL, "/v1/sessions", body, &created)
		if err != nil || status != http.StatusCreated {
			t.Fatalf("create session %d: status %d, err %v", i, status, err)
		}
		ids[i] = created.ID
	}

	// Drive all sessions concurrently; SIGKILL the server once enough
	// ops are acknowledged that the kill lands mid-script, with requests
	// in flight.
	var acked atomic.Int64 // total acknowledged ops across clients
	ackedIters := make([]atomic.Int64, len(ids))
	killAt := int64(len(ids) * len(chaosScript) / 3)
	killed := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			p1.Kill()
			close(killed)
		})
	}

	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for _, op := range chaosScript {
				for {
					n, err := runOp(p1.URL, id, op)
					if err != nil {
						return // server is gone
					}
					if op != "epoch" && n == 0 {
						continue // backpressure: retry the op
					}
					ackedIters[i].Add(int64(n))
					if acked.Add(1) >= killAt {
						kill()
					}
					break
				}
			}
		}(i, id)
	}
	<-killed
	wg.Wait()

	// Restart with -recover: every session resumes at an op boundary,
	// covering at least everything a client saw acknowledged, and its
	// trajectory prefix is bit-identical to the uninterrupted reference.
	p2, err := fleet.Start(bin, append(args, "-recover")...)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Kill()
	waitOutput(t, p2, fmt.Sprintf("recovered %d session(s)", len(ids)))
	states := scriptStates()
	resume := make([]int, len(ids)) // ops already durable, per session
	for i, id := range ids {
		res := chaosResult(t, p2.URL, id)
		pos := -1
		for j, st := range states {
			if res.Iterations == st[0] && res.Epoch == st[1] {
				pos = j
				break
			}
		}
		if pos < 0 {
			t.Fatalf("session %s recovered to (%d iters, epoch %d): not an op boundary",
				id, res.Iterations, res.Epoch)
		}
		if int64(res.Iterations) < ackedIters[i].Load() {
			t.Fatalf("session %s lost acknowledged work: recovered %d iters, %d were acked",
				id, res.Iterations, ackedIters[i].Load())
		}
		sameTrajectoryPrefix(t, "recovered "+id, res, ref[i])
		resume[i] = pos
	}

	// Finish every script against the restarted server and require the
	// final answers to match the uninterrupted run exactly.
	for i, id := range ids {
		for _, op := range chaosScript[resume[i]:] {
			for {
				n, err := runOp(p2.URL, id, op)
				if err != nil {
					t.Fatalf("completing %s after recovery: %v", id, err)
				}
				if op != "epoch" && n == 0 {
					continue
				}
				break
			}
		}
		sameFinal(t, "final "+id, chaosResult(t, p2.URL, id), ref[i])
	}

	// Graceful shutdown: SIGTERM drains and closes the journals, and a
	// third recovery still agrees.
	if err := p2.Terminate(); err != nil {
		t.Fatalf("graceful shutdown: %v\n%s", err, p2.Output())
	}
	if !strings.Contains(p2.Output(), "shutdown complete") {
		t.Fatalf("no shutdown message; output:\n%s", p2.Output())
	}

	p3, err := fleet.Start(bin, append(args, "-recover")...)
	if err != nil {
		t.Fatal(err)
	}
	defer p3.Kill()
	for i, id := range ids {
		sameFinal(t, "post-drain "+id, chaosResult(t, p3.URL, id), ref[i])
	}

	// The journal directory holds exactly the per-session journals.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".journal") {
			t.Fatalf("unexpected file in journal dir: %s", e.Name())
		}
	}
}

// ---------------------------------------------------------------------
// Resilient-client acceptance: the retrying internal/client drives the
// same scripts through a fault-injecting chaosnet proxy while the
// server is SIGKILLed mid-run and restarted with -recover on a new
// port. The client's idempotency keys make every retry safe, so every
// session must complete with final results bit-identical to the
// fault-free reference — nothing lost, nothing double-applied — and a
// key sent before the crash must replay its journaled bytes after it.

// chaosIdemPlan lays a deterministic fault mix on the connection axis:
// outage windows, mid-stream reset strikes, jitter and slowdown
// shaping. It starts at the first connection, so session creates are
// torn too: each carries its session id, and a retry replays it.
func chaosIdemPlan() *faults.Plan {
	p := &faults.Plan{}
	for i, at := 0, 0; at < 4096; i, at = i+1, at+8 {
		switch i % 4 {
		case 0:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Node: 0, Kind: faults.Outage, Duration: 1})
		case 1:
			// A strike ~300 bytes in: the RST often lands after the server
			// committed the op but before the client read the response —
			// exactly the ambiguity idempotency keys resolve.
			p.Events = append(p.Events, faults.Event{
				Iter: at, Offset: 0.3, Node: 0, Kind: faults.Slowdown, Factor: 0.9, Duration: 1})
		case 2:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Kind: faults.Jitter, SD: 0.3, Duration: 3})
		case 3:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Node: 0, Kind: faults.Slowdown, Factor: 0.5, Duration: 2})
		}
	}
	return p
}

// postKeyedBatch sends one batch-step with an explicit Idempotency-Key
// over raw HTTP, returning the status, body bytes and replay marker.
func postKeyedBatch(base, id, key string) (int, []byte, bool, error) {
	req, err := http.NewRequest(http.MethodPost,
		base+"/v1/sessions/"+id+"/batch-step", strings.NewReader(`{"k":3}`))
	if err != nil {
		return 0, nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, false, err
	}
	return resp.StatusCode, body, resp.Header.Get("Idempotency-Replayed") == "true", nil
}

func TestChaosClientIdempotentReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin, _, err := fleet.Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceResults(t)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			chaosClientRound(t, bin, workers, ref)
		})
	}
}

func chaosClientRound(t *testing.T, bin string, workers int, ref []engine.SessionResult) {
	dir := t.TempDir()
	args := []string{"-workers", fmt.Sprint(workers), "-journal-dir", dir}
	p1, err := fleet.Start(bin, args...)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Kill()

	proxy, err := chaosnet.New(chaosnet.Config{
		Listen: "127.0.0.1:0",
		Target: strings.TrimPrefix(p1.URL, "http://"),
		Plan:   chaosIdemPlan(),
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Keep-alive would funnel every request through one proxied TCP
	// connection; per-request connections keep the fault plan's
	// connection axis advancing.
	cl, err := client.New(client.Config{
		BaseURL:        "http://" + proxy.Addr(),
		HTTPClient:     &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
		Seed:           2026,
		MaxAttempts:    30,
		BaseDelay:      20 * time.Millisecond,
		MaxDelay:       400 * time.Millisecond,
		AttemptTimeout: 15 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Create the script sessions plus a probe session, sequentially so
	// IDs map deterministically.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sessions := make([]*client.Session, len(chaosSessions))
	for i, cs := range chaosSessions {
		s, err := cl.CreateSession(ctx, client.CreateSessionRequest{
			Scenario: "b", Strategy: cs.strategy, Seed: cs.seed, Tiles: cs.tiles,
		})
		if err != nil {
			t.Fatalf("create session %d: %v", i, err)
		}
		sessions[i] = s
	}
	probe, err := cl.CreateSession(ctx, client.CreateSessionRequest{
		Scenario: "b", Strategy: "DC", Seed: 21, Tiles: 7,
	})
	if err != nil {
		t.Fatalf("create probe session: %v", err)
	}

	// The probe commits a keyed batch before the crash, straight at the
	// server; after recovery the same key must replay the same bytes.
	const probeKey = "chaos-replay-probe"
	st, body1, replayed, err := postKeyedBatch(p1.URL, probe.Info.ID, probeKey)
	if err != nil || st != http.StatusOK {
		t.Fatalf("probe keyed batch: status %d, err %v", st, err)
	}
	if replayed {
		t.Fatal("first send of the probe key reported a replay")
	}

	// Drive all scripts concurrently through the chaos proxy; SIGKILL
	// the server once enough ops are acknowledged that the kill lands
	// mid-script with requests in flight. The goroutines never see the
	// restart: the client retries across it.
	var acked atomic.Int64
	killAt := int64(len(sessions) * len(chaosScript) / 3)
	killed := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			p1.Kill()
			close(killed)
		})
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var opErrs []error
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *client.Session) {
			defer wg.Done()
			for _, op := range chaosScript {
				opCtx, opCancel := context.WithTimeout(context.Background(), 2*time.Minute)
				var err error
				switch op {
				case "step":
					_, err = s.Step(opCtx)
				case "batch3":
					_, err = s.BatchStep(opCtx, 3)
				case "epoch":
					_, err = s.AdvanceEpoch(opCtx)
				}
				opCancel()
				if err != nil {
					errMu.Lock()
					opErrs = append(opErrs, fmt.Errorf("session %s op %s: %w", s.Info.ID, op, err))
					errMu.Unlock()
					return
				}
				if acked.Add(1) >= killAt {
					kill()
				}
			}
		}(i, s)
	}

	<-killed

	// Restart with recovery on a fresh port and repoint the proxy; the
	// clients' in-flight retries converge on the recovered server.
	p2, err := fleet.Start(bin, append(args, "-recover")...)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Kill()
	waitOutput(t, p2, fmt.Sprintf("recovered %d session(s)", len(sessions)+1))
	proxy.SetTarget(strings.TrimPrefix(p2.URL, "http://"))

	wg.Wait()
	for _, err := range opErrs {
		t.Error(err)
	}
	if t.Failed() {
		t.Fatalf("sessions did not survive chaos; client stats %+v, proxy stats %+v",
			cl.Snapshot(), proxy.Snapshot())
	}

	// Every script completed across faults and a crash: final results
	// must be bit-identical to the fault-free reference.
	for i, s := range sessions {
		res, err := s.Result(ctx)
		if err != nil {
			t.Fatalf("result %s: %v", s.Info.ID, err)
		}
		sameFinal(t, "chaos-client final "+s.Info.ID, res, ref[i])
	}

	// The crash forced retries: the resilience machinery actually ran.
	if st := cl.Snapshot(); st.Retries == 0 {
		t.Errorf("no client retries recorded across a SIGKILL window: %+v", st)
	}

	// Same key, same bytes, across the crash: the journaled result is
	// replayed bit-for-bit and the batch is not applied twice.
	st2, body2, replayed2, err := postKeyedBatch(p2.URL, probe.Info.ID, probeKey)
	if err != nil || st2 != http.StatusOK {
		t.Fatalf("probe keyed batch after recovery: status %d, err %v", st2, err)
	}
	if !replayed2 {
		t.Fatal("re-sent probe key was not served as a replay after recovery")
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("replayed body differs across crash:\npre:  %s\npost: %s", body1, body2)
	}
	var probeBatch struct {
		Steps []json.RawMessage `json:"steps"`
	}
	if err := json.Unmarshal(body1, &probeBatch); err != nil {
		t.Fatalf("decoding probe batch body: %v", err)
	}
	probeRes := chaosResult(t, p2.URL, probe.Info.ID)
	if probeRes.Iterations != len(probeBatch.Steps) || probeRes.Epoch != 0 {
		t.Fatalf("probe session at (%d iters, epoch %d) after a %d-step keyed batch: double-applied",
			probeRes.Iterations, probeRes.Epoch, len(probeBatch.Steps))
	}
}
