package phasetune_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phasetune/internal/chaosnet"
	"phasetune/internal/engine"
	"phasetune/internal/shard"
)

// The sharded chaos acceptance test: a phasetune-shard router fronts a
// fleet of journaled workers with peer-wired evaluation caches; clients
// drive the chaos scripts through the router with idempotency keys
// while the worker owning session s1 is SIGKILLed mid-run, restarted
// with -recover on a fresh port, and repointed via POST /admin/shards.
// Clients never see the failover — the router answers 502/503 while the
// shard is down and retries with the same key replay committed ops —
// and every final best-n answer must be bit-identical to the
// uninterrupted single-process reference. Keyed sweeps that hash onto
// the victim must return bit-identical tuning results before, during,
// and after the failover, and (at shards>1) twin sessions on different
// shards must agree bit-for-bit while the second one's evaluations are
// answered by the first shard's cache over the peer protocol.

// startShardRouter launches a phasetune-shard binary; its /readyz turns
// 200 only once every worker behind it is ready.
func startShardRouter(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	return startProc(t, bin, "phasetune-shard listening on ", args...)
}

// shardReq performs one HTTP request, optionally carrying an
// Idempotency-Key, and returns the status, the X-Phasetune-Shard
// routing header, and the raw body.
func shardReq(method, url, key string, body []byte) (int, string, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, err
	}
	return resp.StatusCode, resp.Header.Get("X-Phasetune-Shard"), data, nil
}

// shardRetry repeats the request across the fault window: transport
// errors, 429 backpressure, and the 502/503 the router serves while a
// shard is down or being repointed all retry with the same idempotency
// key, so a commit that lost its response is replayed, not re-applied.
// Safe from non-test goroutines: failures come back as errors.
func shardRetry(tag, method, url, key string, body []byte) (string, []byte, error) {
	deadline := time.Now().Add(2 * time.Minute)
	var lastStatus int
	var lastErr error
	var lastBody []byte
	for time.Now().Before(deadline) {
		status, sh, data, err := shardReq(method, url, key, body)
		if err == nil && status < 300 {
			return sh, data, nil
		}
		if err == nil && status != http.StatusTooManyRequests &&
			status != http.StatusBadGateway && status != http.StatusServiceUnavailable {
			return "", nil, fmt.Errorf("%s: status %d: %s", tag, status, data)
		}
		lastStatus, lastErr, lastBody = status, err, data
		time.Sleep(25 * time.Millisecond)
	}
	return "", nil, fmt.Errorf("%s: retry deadline exceeded (last status %d, err %v, body %s)",
		tag, lastStatus, lastErr, lastBody)
}

// shardOpBody maps a chaos-script op to its request path and body.
func shardOpBody(op string) (path string, body []byte) {
	switch op {
	case "step":
		return "/step", []byte("{}")
	case "batch3":
		return "/batch-step", []byte(`{"k":3}`)
	case "epoch":
		return "/advance-epoch", nil
	}
	panic("unknown op " + op)
}

// sweepKeyOn finds an idempotency key the router will hash onto the
// named shard (sweeps route by "sweep|"+key on the same ring).
func sweepKeyOn(ring *shard.Ring, name, prefix string) string {
	for i := 0; ; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		if ring.Lookup("sweep|"+key) == name {
			return key
		}
	}
}

// sweepPayload is the deterministic shape of a sweep response. The
// per-point cache_hit flag is warmth-dependent observability — a sweep
// recomputed after a failover hits entries its predecessor populated —
// so comparisons decode the body and ignore it.
type sweepPayload struct {
	Scenario    string `json:"scenario"`
	Fingerprint string `json:"fingerprint"`
	Points      []struct {
		Action   int     `json:"action"`
		Makespan float64 `json:"makespan"`
		CacheHit bool    `json:"cache_hit"`
	} `json:"points"`
	BestAction   int     `json:"best_action"`
	BestMakespan float64 `json:"best_makespan"`
}

// sameSweep asserts two sweep response bodies carry bit-identical
// tuning content: scenario, fingerprint, every (action, makespan)
// point, and the best pick. Only cache_hit may differ.
func sameSweep(t *testing.T, tag string, a, b []byte) {
	t.Helper()
	var pa, pb sweepPayload
	if err := json.Unmarshal(a, &pa); err != nil {
		t.Fatalf("%s: decoding first sweep: %v\n%s", tag, err, a)
	}
	if err := json.Unmarshal(b, &pb); err != nil {
		t.Fatalf("%s: decoding second sweep: %v\n%s", tag, err, b)
	}
	if pa.Scenario != pb.Scenario || pa.Fingerprint != pb.Fingerprint ||
		len(pa.Points) != len(pb.Points) ||
		pa.BestAction != pb.BestAction ||
		math.Float64bits(pa.BestMakespan) != math.Float64bits(pb.BestMakespan) {
		t.Fatalf("%s: sweep results differ:\n%s\nvs\n%s", tag, a, b)
	}
	for i := range pa.Points {
		if pa.Points[i].Action != pb.Points[i].Action ||
			math.Float64bits(pa.Points[i].Makespan) != math.Float64bits(pb.Points[i].Makespan) {
			t.Fatalf("%s: sweep point %d differs: (%d, %v) vs (%d, %v)", tag, i,
				pa.Points[i].Action, pa.Points[i].Makespan,
				pb.Points[i].Action, pb.Points[i].Makespan)
		}
	}
}

// scrapeCounter sums every sample of the named counter in a worker's
// Prometheus /metrics exposition.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	total := 0.0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (!strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{")) {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

func TestShardChaosKillRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	binDir := t.TempDir()
	serveBin := filepath.Join(binDir, "phasetune-serve")
	routerBin := filepath.Join(binDir, "phasetune-shard")
	for bin, pkg := range map[string]string{
		serveBin:  "./cmd/phasetune-serve",
		routerBin: "./cmd/phasetune-shard",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Dir = "."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	ref := referenceResults(t)

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardChaosRound(t, serveBin, routerBin, shards, ref)
		})
	}
}

func shardChaosRound(t *testing.T, serveBin, routerBin string, shards int, ref []engine.SessionResult) {
	var procs []*serveProc
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.cmd.Process.Kill()
		}
		for _, p := range procs {
			<-p.scanned
			_ = p.cmd.Wait()
		}
	})

	// The fleet: every worker journals to its own directory, so a kill
	// loses a process but never committed state.
	workerArgs := []string{"-workers", "2"}
	names := make([]string, shards)
	dirs := make([]string, shards)
	workers := make([]*serveProc, shards)
	for i := range workers {
		names[i] = fmt.Sprintf("w%d", i)
		dirs[i] = t.TempDir()
		workers[i] = startServe(t, serveBin,
			append([]string{"-journal-dir", dirs[i]}, workerArgs...)...)
		procs = append(procs, workers[i])
	}

	// Peer-wire the caches in both directions; re-run after a failover
	// so the restarted worker rejoins the mesh at its new address.
	wirePeers := func() error {
		if shards == 1 {
			return nil
		}
		for i, w := range workers {
			var peers []string
			for j, o := range workers {
				if j != i {
					peers = append(peers, o.base)
				}
			}
			body, err := json.Marshal(map[string][]string{"peers": peers})
			if err != nil {
				return err
			}
			if status, err := chaosPost(w.base, "/v1/cache/peers", body, nil); err != nil || status != http.StatusOK {
				return fmt.Errorf("wiring peers on %s: status %d, err %w", names[i], status, err)
			}
		}
		return nil
	}
	if err := wirePeers(); err != nil {
		t.Fatal(err)
	}

	// The router, plus a client-side mirror of its hash ring: the test
	// predicts every placement and the X-Phasetune-Shard headers must
	// agree with the prediction.
	parts := make([]string, shards)
	for i := range names {
		parts[i] = names[i] + "=" + workers[i].base
	}
	rt := startShardRouter(t, routerBin, "-shards", strings.Join(parts, ","), "-seed", "5")
	procs = append(procs, rt)
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Client-assigned ids keep the session->reference mapping fixed; the
	// distinct tile counts keep trajectories interleaving-independent.
	ids := make([]string, len(chaosSessions))
	for i, cs := range chaosSessions {
		id := fmt.Sprintf("s%d", i+1)
		body, err := json.Marshal(map[string]any{
			"id": id, "scenario": "b", "strategy": cs.strategy, "seed": cs.seed, "tiles": cs.tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		status, owner, data, err := shardReq(http.MethodPost, rt.base+"/v1/sessions", "", body)
		if err != nil || status != http.StatusCreated {
			t.Fatalf("create %s: status %d, err %v: %s", id, status, err, data)
		}
		if want := ring.Lookup(id); owner != want {
			t.Fatalf("create %s landed on shard %q, ring says %q", id, owner, want)
		}
		ids[i] = id
	}

	victimName := ring.Lookup(ids[0])
	victimIdx := -1
	for i, n := range names {
		if n == victimName {
			victimIdx = i
		}
	}

	// A keyed sweep committed on the victim before the crash. Sweep
	// tiles stay distinct from every session's so no cache fingerprint
	// is shared and batch proposals keep matching the reference.
	sweepBody := []byte(`{"scenario":"b","tiles":3,"seed":5}`)
	keyPre := sweepKeyOn(ring, victimName, "sweep-pre")
	owner, sweepPre, err := shardRetry("pre-kill sweep", http.MethodPost, rt.base+"/v1/sweep", keyPre, sweepBody)
	if err != nil {
		t.Fatal(err)
	}
	if owner != victimName {
		t.Fatalf("keyed sweep landed on shard %q, ring says %q", owner, victimName)
	}

	// Drive all scripts concurrently; SIGKILL the victim once enough
	// ops are acknowledged that the kill lands mid-script.
	var acked atomic.Int64
	killAt := int64(len(ids) * len(chaosScript) / 3)
	killed := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			_ = workers[victimIdx].cmd.Process.Kill()
			close(killed)
		})
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var opErrs []error
	addErr := func(err error) {
		errMu.Lock()
		opErrs = append(opErrs, err)
		errMu.Unlock()
	}
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for opIdx, op := range chaosScript {
				path, body := shardOpBody(op)
				key := fmt.Sprintf("shard-chaos:%s:%d", id, opIdx)
				if _, _, err := shardRetry(op+" "+id, http.MethodPost,
					rt.base+"/v1/sessions/"+id+path, key, body); err != nil {
					addErr(err)
					return
				}
				if acked.Add(1) >= killAt {
					kill()
				}
			}
		}(id)
	}

	// A second victim-keyed sweep fired into the kill window: it must
	// block on 502s until the failover completes, then commit the same
	// bytes the fleet computed before the crash.
	keyMid := sweepKeyOn(ring, victimName, "sweep-mid")
	var sweepMid []byte
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killed
		_, data, err := shardRetry("mid-kill sweep", http.MethodPost, rt.base+"/v1/sweep", keyMid, sweepBody)
		if err != nil {
			addErr(err)
			return
		}
		errMu.Lock()
		sweepMid = data
		errMu.Unlock()
	}()

	select {
	case <-killed:
	case <-time.After(3 * time.Minute):
		t.Fatal("kill threshold never reached")
	}

	// Failover: restart the victim with -recover on its journal
	// directory (fresh port), rejoin the peer mesh, and repoint the
	// router. Drivers keep retrying throughout.
	victim := workers[victimIdx]
	<-victim.scanned
	_ = victim.cmd.Wait()
	restarted := startServe(t, serveBin,
		append([]string{"-journal-dir", dirs[victimIdx]}, append(workerArgs, "-recover")...)...)
	procs = append(procs, restarted)
	workers[victimIdx] = restarted
	waitOutput(t, restarted, "recovered ")
	if err := wirePeers(); err != nil {
		t.Fatal(err)
	}
	adminBody, err := json.Marshal(shard.Shard{Name: victimName, Addr: restarted.base})
	if err != nil {
		t.Fatal(err)
	}
	status, _, adminResp, err := shardReq(http.MethodPost, rt.base+"/admin/shards", "", adminBody)
	if err != nil || status != http.StatusOK {
		t.Fatalf("repointing %s: status %d, err %v: %s", victimName, status, err, adminResp)
	}
	var repointed struct {
		Up bool `json:"up"`
	}
	if err := json.Unmarshal(adminResp, &repointed); err != nil || !repointed.Up {
		t.Fatalf("repointed shard not up: %s (err %v)", adminResp, err)
	}

	wg.Wait()
	for _, err := range opErrs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every script ran to completion across the failover: finals via the
	// router must be bit-identical to the uninterrupted reference.
	for i, id := range ids {
		sameFinal(t, fmt.Sprintf("shards=%d final %s", shards, id), chaosResult(t, rt.base, id), ref[i])
	}

	// Sweep continuity: re-sending the pre-kill key routes back to the
	// recovered victim, the mid-kill sweep committed across the
	// failover, and (at shards>1) a fresh key on another shard computes
	// the same answer — every tuning result identical, because sweeps
	// are a deterministic function of their request.
	owner, sweepPost, err := shardRetry("post-recovery sweep replay", http.MethodPost,
		rt.base+"/v1/sweep", keyPre, sweepBody)
	if err != nil {
		t.Fatal(err)
	}
	if owner != victimName {
		t.Fatalf("replayed sweep landed on shard %q, ring says %q", owner, victimName)
	}
	sameSweep(t, "sweep across failover", sweepPre, sweepPost)
	sameSweep(t, "mid-kill sweep", sweepPre, sweepMid)
	if shards > 1 {
		var otherName string
		for _, n := range names {
			if n != victimName {
				otherName = n
				break
			}
		}
		keyOther := sweepKeyOn(ring, otherName, "sweep-other")
		if _, sweepOther, err := shardRetry("cross-shard sweep", http.MethodPost,
			rt.base+"/v1/sweep", keyOther, sweepBody); err != nil {
			t.Fatal(err)
		} else {
			sameSweep(t, "sweep across shards", sweepPre, sweepOther)
		}

		shardPeerTwinPhase(t, rt.base, ring, names, workers)
	}
}

// shardPeerTwinPhase proves the cross-shard cache is load-bearing: two
// identically-configured sessions placed on different shards, driven
// with sequential single steps (whose proposals do not depend on cache
// warmth), must produce bit-identical results — and the second one's
// evaluations must be answered out of the first shard's cache, visible
// as peer-cache hits in the fleet's metrics.
func shardPeerTwinPhase(t *testing.T, routerBase string, ring *shard.Ring, names []string, workers []*serveProc) {
	t.Helper()
	var twins []string
	for i := 0; len(twins) < 2; i++ {
		id := fmt.Sprintf("pair-%d", i)
		if len(twins) == 0 || ring.Lookup(id) != ring.Lookup(twins[0]) {
			twins = append(twins, id)
		}
	}
	before := 0.0
	for _, w := range workers {
		before += scrapeCounter(t, w.base, "phasetune_peer_cache_hits_total")
	}
	for _, id := range twins {
		body, err := json.Marshal(map[string]any{
			"id": id, "scenario": "b", "strategy": "UCB", "seed": 33, "tiles": 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		status, owner, data, err := shardReq(http.MethodPost, routerBase+"/v1/sessions", "", body)
		if err != nil || status != http.StatusCreated {
			t.Fatalf("create twin %s: status %d, err %v: %s", id, status, err, data)
		}
		if want := ring.Lookup(id); owner != want {
			t.Fatalf("twin %s landed on shard %q, ring says %q", id, owner, want)
		}
		for j := 0; j < 6; j++ {
			if _, _, err := shardRetry("twin step "+id, http.MethodPost,
				routerBase+"/v1/sessions/"+id+"/step",
				fmt.Sprintf("twin:%s:%d", id, j), []byte("{}")); err != nil {
				t.Fatal(err)
			}
		}
	}
	resA := chaosResult(t, routerBase, twins[0])
	resB := chaosResult(t, routerBase, twins[1])
	if resA.Iterations != 6 {
		t.Fatalf("twin %s ran %d iterations, want 6", twins[0], resA.Iterations)
	}
	sameFinal(t, "peer twin "+twins[1], resB, resA)
	after := 0.0
	for _, w := range workers {
		after += scrapeCounter(t, w.base, "phasetune_peer_cache_hits_total")
	}
	if after <= before {
		t.Fatalf("no peer-cache hits recorded for twin sessions on shards %q and %q (before %v, after %v)",
			ring.Lookup(twins[0]), ring.Lookup(twins[1]), before, after)
	}
}

// The automatic-failover acceptance test: the owner of active sessions
// is SIGKILLed and NEVER restarted. The supervising router notices on
// its own health cadence and promotes each orphaned session onto its
// replication follower — zero /admin/shards calls, zero operator
// involvement — and every finished session must be bit-identical to
// the uninterrupted single-process reference. A zombie revived later
// from the dead owner's disk is fenced out of its old generation.

// wireReplicaChain POSTs the fleet membership to every worker so each
// engine ships its sessions' journals to the follower the shared ring
// names — the same wiring phasetune-load and an operator would do.
func wireReplicaChain(t *testing.T, names []string, bases []string) {
	t.Helper()
	type member struct {
		Name string `json:"name"`
		Addr string `json:"addr"`
	}
	members := make([]member, len(names))
	for i := range names {
		members[i] = member{Name: names[i], Addr: bases[i]}
	}
	for i, base := range bases {
		body, err := json.Marshal(map[string]any{"self": names[i], "members": members})
		if err != nil {
			t.Fatal(err)
		}
		if status, err := chaosPost(base, "/v1/replica/fleet", body, nil); err != nil || status != http.StatusOK {
			t.Fatalf("wiring replica fleet on %s: status %d, err %v", names[i], status, err)
		}
	}
}

// buildShardBins compiles the serve and router binaries into a temp
// dir shared by one test.
func buildShardBins(t *testing.T) (serveBin, routerBin string) {
	t.Helper()
	binDir := t.TempDir()
	serveBin = filepath.Join(binDir, "phasetune-serve")
	routerBin = filepath.Join(binDir, "phasetune-shard")
	for bin, pkg := range map[string]string{
		serveBin:  "./cmd/phasetune-serve",
		routerBin: "./cmd/phasetune-shard",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Dir = "."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	return serveBin, routerBin
}

func TestShardChaosAutoFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serveBin, routerBin := buildShardBins(t)
	ref := referenceResults(t)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			shardAutoFailoverRound(t, serveBin, routerBin, workers, ref)
		})
	}
}

func shardAutoFailoverRound(t *testing.T, serveBin, routerBin string, engineWorkers int, ref []engine.SessionResult) {
	var procs []*serveProc
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.cmd.Process.Kill()
		}
		for _, p := range procs {
			<-p.scanned
			_ = p.cmd.Wait()
		}
	})

	const fleetSize = 3
	workerArgs := []string{"-workers", strconv.Itoa(engineWorkers)}
	names := make([]string, fleetSize)
	dirs := make([]string, fleetSize)
	bases := make([]string, fleetSize)
	workers := make([]*serveProc, fleetSize)
	for i := range workers {
		names[i] = fmt.Sprintf("w%d", i)
		dirs[i] = t.TempDir()
		workers[i] = startServe(t, serveBin,
			append([]string{"-journal-dir", dirs[i]}, workerArgs...)...)
		bases[i] = workers[i].base
		procs = append(procs, workers[i])
	}
	wireReplicaChain(t, names, bases)

	parts := make([]string, fleetSize)
	for i := range names {
		parts[i] = names[i] + "=" + bases[i]
	}
	rt := startShardRouter(t, routerBin,
		"-shards", strings.Join(parts, ","), "-seed", "5", "-health-interval", "150ms")
	procs = append(procs, rt)
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, len(chaosSessions))
	for i, cs := range chaosSessions {
		id := fmt.Sprintf("s%d", i+1)
		body, err := json.Marshal(map[string]any{
			"id": id, "scenario": "b", "strategy": cs.strategy, "seed": cs.seed, "tiles": cs.tiles,
		})
		if err != nil {
			t.Fatal(err)
		}
		status, owner, data, err := shardReq(http.MethodPost, rt.base+"/v1/sessions", "", body)
		if err != nil || status != http.StatusCreated {
			t.Fatalf("create %s: status %d, err %v: %s", id, status, err, data)
		}
		if want := ring.Lookup(id); owner != want {
			t.Fatalf("create %s landed on shard %q, ring says %q", id, owner, want)
		}
		ids[i] = id
	}

	victimName := ring.Lookup(ids[0])
	victimIdx := -1
	for i, n := range names {
		if n == victimName {
			victimIdx = i
		}
	}
	follower := ring.LookupN(ids[0], fleetSize)[1]

	// Drive every script concurrently; SIGKILL the owner of s1 once the
	// kill lands mid-script. It is never restarted and no /admin/shards
	// call is ever made: recovery is the supervisor's job alone.
	var acked atomic.Int64
	killAt := int64(len(ids) * len(chaosScript) / 3)
	killed := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			_ = workers[victimIdx].cmd.Process.Kill()
			close(killed)
		})
	}

	var wg sync.WaitGroup
	var errMu sync.Mutex
	var opErrs []error
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for opIdx, op := range chaosScript {
				path, body := shardOpBody(op)
				key := fmt.Sprintf("auto-failover:%s:%d", id, opIdx)
				if _, _, err := shardRetry(op+" "+id, http.MethodPost,
					rt.base+"/v1/sessions/"+id+path, key, body); err != nil {
					errMu.Lock()
					opErrs = append(opErrs, err)
					errMu.Unlock()
					return
				}
				if acked.Add(1) >= killAt {
					kill()
				}
			}
		}(id)
	}
	select {
	case <-killed:
	case <-time.After(3 * time.Minute):
		t.Fatal("kill threshold never reached")
	}
	wg.Wait()
	for _, err := range opErrs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Every script finished, so the victim's sessions were promoted
	// automatically. The registry must say so: served by the follower,
	// at a bumped generation; untouched sessions stay put at gen 1.
	var sessions []struct {
		ID    string `json:"id"`
		Shard string `json:"shard"`
		Gen   uint64 `json:"gen"`
	}
	status, _, raw, err := shardReq(http.MethodGet, rt.base+"/admin/sessions", "", nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("admin/sessions: status %d, err %v", status, err)
	}
	if err := json.Unmarshal(raw, &sessions); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range sessions {
		seen[s.ID] = true
		ringOwner := ring.Lookup(s.ID)
		if ringOwner == victimName {
			if s.Shard != follower && ring.LookupN(s.ID, fleetSize)[1] != s.Shard {
				t.Fatalf("session %s promoted onto %s, not its follower", s.ID, s.Shard)
			}
			if s.Shard == victimName || s.Gen < 2 {
				t.Fatalf("session %s not promoted: %+v", s.ID, s)
			}
		} else if s.Shard != ringOwner || s.Gen != 1 {
			t.Fatalf("session %s moved without cause: %+v", s.ID, s)
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("session %s missing from the supervisor registry", id)
		}
	}

	// Finished sessions via the router are bit-identical to the
	// uninterrupted single-process reference.
	for i, id := range ids {
		sameFinal(t, fmt.Sprintf("workers=%d final %s", engineWorkers, id), chaosResult(t, rt.base, id), ref[i])
	}

	// The zombie: a process revived from the dead owner's disk recovers
	// its sessions at the old generation. Its first commit ships to the
	// promoted follower, is refused by the fence, and must surface as a
	// conflict — never an ack.
	zombie := startServe(t, serveBin,
		append([]string{"-journal-dir", dirs[victimIdx]}, append(workerArgs, "-recover")...)...)
	procs = append(procs, zombie)
	waitOutput(t, zombie, "recovered ")
	zbases := append([]string{}, bases...)
	zbases[victimIdx] = zombie.base
	wireReplicaChain(t, names, zbases)
	zstatus, _, zraw, err := shardReq(http.MethodPost, zombie.base+"/v1/sessions/"+ids[0]+"/step", "", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if zstatus != http.StatusConflict || !strings.Contains(string(zraw), "fenced") {
		t.Fatalf("zombie owner's commit: status %d body %s, want 409 fenced", zstatus, zraw)
	}

	// The fleet event log must tell the whole failover story in causal
	// order: the router saw the owner die, the supervisor promoted the
	// session at a bumped generation, and the zombie's stale-generation
	// ship was fenced by the promoted follower.
	estatus, _, eraw, err := shardReq(http.MethodGet, rt.base+"/v1/events", "", nil)
	if err != nil || estatus != http.StatusOK {
		t.Fatalf("fleet events: status %d, err %v", estatus, err)
	}
	var elog struct {
		Events []struct {
			Type    string         `json:"type"`
			Shard   string         `json:"shard"`
			Session string         `json:"session"`
			Fields  map[string]any `json:"fields"`
		} `json:"events"`
	}
	if err := json.Unmarshal(eraw, &elog); err != nil {
		t.Fatalf("fleet events decode: %v\n%s", err, eraw)
	}
	idxDown, idxPromoted, idxFenced := -1, -1, -1
	for i, ev := range elog.Events {
		switch {
		case idxDown < 0 && ev.Type == "shard.down" && ev.Fields["shard"] == victimName:
			idxDown = i
		case idxPromoted < 0 && ev.Type == "session.promoted" && ev.Session == ids[0]:
			if gen, ok := ev.Fields["gen"].(float64); !ok || gen < 2 {
				t.Fatalf("session.promoted without a bumped generation: %+v", ev)
			}
			idxPromoted = i
		case idxFenced < 0 && ev.Type == "repl.fenced" && ev.Session == ids[0]:
			idxFenced = i
		}
	}
	if idxDown < 0 || idxPromoted < 0 || idxFenced < 0 {
		t.Fatalf("causal chain incomplete in fleet events: shard.down@%d session.promoted@%d repl.fenced@%d\n%s",
			idxDown, idxPromoted, idxFenced, eraw)
	}
	if !(idxDown < idxPromoted && idxPromoted < idxFenced) {
		t.Fatalf("causal chain out of order: shard.down@%d session.promoted@%d repl.fenced@%d",
			idxDown, idxPromoted, idxFenced)
	}
}

// The asymmetric-partition test: the owner keeps serving clients that
// reach it directly, but the router's path to it runs through a
// chaosnet proxy that gets blackholed — the classic "the monitor
// thinks the node is dead, the node disagrees" split. The supervisor
// promotes the follower anyway, the zombie's next replicated commit is
// fenced, and because every ack required the follower's append first,
// the promoted timeline contains every operation any client ever saw
// acknowledged: the finished session is bit-identical to the
// uninterrupted reference.
func TestShardChaosPartitionPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	serveBin, routerBin := buildShardBins(t)
	ref := referenceResults(t)[0]

	var procs []*serveProc
	t.Cleanup(func() {
		for _, p := range procs {
			_ = p.cmd.Process.Kill()
		}
		for _, p := range procs {
			<-p.scanned
			_ = p.cmd.Wait()
		}
	})

	const fleetSize = 3
	names := []string{"w0", "w1", "w2"}
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A session whose ring owner is w0, the member we will partition.
	var id string
	for i := 0; ; i++ {
		id = fmt.Sprintf("part-%d", i)
		if ring.Lookup(id) == "w0" {
			break
		}
	}
	follower := ring.LookupN(id, fleetSize)[1]

	workerArgs := []string{"-workers", "2"}
	dirs := make([]string, fleetSize)
	bases := make([]string, fleetSize)
	workers := make([]*serveProc, fleetSize)
	for i := range workers {
		dirs[i] = t.TempDir()
		workers[i] = startServe(t, serveBin,
			append([]string{"-journal-dir", dirs[i]}, workerArgs...)...)
		bases[i] = workers[i].base
		procs = append(procs, workers[i])
	}
	// Worker-to-worker replication uses the real addresses: the
	// partition cuts only the router's view of w0.
	wireReplicaChain(t, names, bases)

	proxy, err := chaosnet.New(chaosnet.Config{
		Listen: "127.0.0.1:0",
		Target: strings.TrimPrefix(bases[0], "http://"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = proxy.Close() })

	parts := []string{
		"w0=http://" + proxy.Addr(),
		"w1=" + bases[1],
		"w2=" + bases[2],
	}
	rt := startShardRouter(t, routerBin,
		"-shards", strings.Join(parts, ","), "-seed", "5", "-health-interval", "150ms")
	procs = append(procs, rt)

	cs := chaosSessions[0]
	body, err := json.Marshal(map[string]any{
		"id": id, "scenario": "b", "strategy": cs.strategy, "seed": cs.seed, "tiles": cs.tiles,
	})
	if err != nil {
		t.Fatal(err)
	}
	status, owner, data, err := shardReq(http.MethodPost, rt.base+"/v1/sessions", "", body)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("create %s: status %d, err %v: %s", id, status, err, data)
	}
	if owner != "w0" {
		t.Fatalf("create %s landed on %q, want w0", id, owner)
	}

	// runOp commits one script op exactly once: first directly against
	// the owner (the client-side of the asymmetric partition), and if
	// the owner refuses — fenced mid-promotion, or already failed
	// closed — the same idempotency key retries through the router, so
	// a commit the owner did ack is replayed, never re-applied.
	runOp := func(opIdx int, direct bool) {
		t.Helper()
		op := chaosScript[opIdx]
		path, opBody := shardOpBody(op)
		key := fmt.Sprintf("partition:%s:%d", id, opIdx)
		if direct {
			dstatus, _, _, derr := shardReq(http.MethodPost, bases[0]+"/v1/sessions/"+id+path, key, opBody)
			if derr == nil && dstatus < 300 {
				return
			}
		}
		if _, _, err := shardRetry(op+" "+id, http.MethodPost,
			rt.base+"/v1/sessions/"+id+path, key, opBody); err != nil {
			t.Fatal(err)
		}
	}

	// Two ops through the router while the fleet is healthy.
	runOp(0, false)
	runOp(1, false)

	// The partition: the router's probes (and proxied requests) to w0
	// now dial a dead port, and the tunnels its keep-alive client was
	// riding are reset; direct clients still reach w0, whose own
	// replication path to its follower is untouched.
	proxy.SetTarget("127.0.0.1:1")
	proxy.DropConns()

	// Ops committed by the isolated owner. Each ack required the
	// follower's fsync first, so whatever lands here survives the
	// takeover; whatever gets fenced instead is replayed via the router.
	runOp(2, true)
	runOp(3, true)

	// The supervisor deposes w0 on its own: no admin call, no restart.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var sessions []struct {
			ID    string `json:"id"`
			Shard string `json:"shard"`
			Gen   uint64 `json:"gen"`
		}
		status, _, raw, err := shardReq(http.MethodGet, rt.base+"/admin/sessions", "", nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("admin/sessions: status %d, err %v", status, err)
		}
		if err := json.Unmarshal(raw, &sessions); err != nil {
			t.Fatal(err)
		}
		promoted := false
		for _, s := range sessions {
			if s.ID == id && s.Shard != "w0" && s.Gen >= 2 {
				if s.Shard != follower {
					t.Fatalf("session %s promoted onto %s, want follower %s", id, s.Shard, follower)
				}
				promoted = true
			}
		}
		if promoted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("supervisor never promoted %s off the partitioned owner", id)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The zombie side of the fence: w0 is alive and reachable by
	// clients, but its next commit ships to the promoted follower and
	// is refused. Depending on whether an earlier direct op already
	// tripped the fence, the session is either fenced now (409) or has
	// already failed closed (503) — it must never ack.
	zstatus, _, zraw, err := shardReq(http.MethodPost, bases[0]+"/v1/sessions/"+id+"/step", "", []byte("{}"))
	if err != nil {
		t.Fatal(err)
	}
	fenced := zstatus == http.StatusConflict && strings.Contains(string(zraw), "fenced")
	broken := zstatus == http.StatusServiceUnavailable && strings.Contains(string(zraw), "failed closed")
	if !fenced && !broken {
		t.Fatalf("partitioned owner's post-promotion commit: status %d body %s, want fenced or failed closed", zstatus, zraw)
	}

	// The rest of the script runs on the promoted follower.
	runOp(4, false)
	runOp(5, false)

	final := chaosResult(t, rt.base, id)
	sameFinal(t, "partition promote "+id, final, ref)

	// The partition was real: the router's probes dialed into the void.
	if st := proxy.Snapshot(); st.DialErrors == 0 {
		t.Fatalf("proxy saw no dial errors; the partition never bit: %+v", st)
	}
}
