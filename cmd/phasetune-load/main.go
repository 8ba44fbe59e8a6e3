// Command phasetune-load is the fault gate for phasetune-serve and
// phasetune-shard: it drives a real server or fleet with scripted tuning
// sessions, optionally through the chaosnet fault-injecting proxy or
// across a mid-window worker kill, prints one summary and exits non-zero
// when a gate is violated. It writes no file.
//
//	# 10 seconds of load against a spawned server, clean network
//	phasetune-load -serve-bin ./phasetune-serve -duration 10s -rate 8 -slo-p99 2s
//
//	# the same through a seeded chaos proxy
//	phasetune-load -serve-bin ./phasetune-serve -chaos -seed 7
//
// The gates are fixed, apart from the optional -slo-p99 limit. Any failed
// op fails the run: every op goes through internal/client and is
// retry-safe (mutations carry idempotency keys, creates their session
// ids), so a failed op is lost work, not transport noise. So do a p99
// above -slo-p99, a trajectory that differs from the in-process
// reference, a killed worker whose restart fails, and a killed worker's
// canary session that never answers again.
//
// Open loop means arrivals do not wait for completions: sessions start
// on a Poisson clock regardless of how slow the server is, so latency
// degradation shows up as latency, not as politely reduced load
// (avoiding coordinated omission). `-closed C` switches to a closed
// loop of C concurrent clients running sessions back to back, which
// keeps a fleet busy across a mid-window kill however fast it serves.
//
// Fleets are reached two ways: `-addr` at a phasetune-shard router, or
// `-spawn-shards N -serve-bin ... -shard-bin ...`, which spawns N worker
// processes (each with its own journal dir, evaluation caches
// peer-wired, every committed journal record replicated to its ring
// follower) behind a router and drives the router. In a spawned fleet:
//
//   - `-kill-after` SIGKILLs one worker mid-run and restarts it with
//     -recover, repointing the router at its new address;
//   - adding `-kill-no-restart` leaves the victim dead: the router's
//     supervisor must promote the orphaned sessions onto their replicas
//     unattended, and a canary session on the victim times the
//     client-visible outage;
//   - `-verify-sessions n` replays the first n session scripts on an
//     in-process reference engine after the run and compares the
//     trajectories bit for bit (math.Float64bits), proving the fleet
//     returned exactly what a single deterministic engine would have.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/chaosnet"
	"phasetune/internal/client"
	"phasetune/internal/engine"
	"phasetune/internal/faults"
	"phasetune/internal/fleet"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
	"phasetune/internal/shard"
	"phasetune/internal/stats"
)

// The session script and fault shapes every caller runs.
const (
	scenario       = "b"
	strategy       = "DC"
	batchK         = 2                      // speculative width of batch-step ops
	chaosIntensity = 0.3                    // fraction of connections the chaos plan disturbs
	restartAfter   = 500 * time.Millisecond // a killed worker's downtime before its restart
)

type config struct {
	addr     string
	serveBin string
	workers  int

	spawnShards   int
	shardBin      string
	killAfter     time.Duration
	killShard     int
	killNoRestart bool

	duration   time.Duration
	rate       float64
	closed     int
	steps      int
	streamK    int
	sweepEvery int
	epochEvery int
	tiles      int
	seed       int64
	opTimeout  time.Duration
	settle     time.Duration

	chaos          bool
	verifySessions int
	sloP99         time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "phasetune-serve or phasetune-shard address (host:port); empty spawns -serve-bin")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "phasetune-serve binary to spawn on a loopback port when -addr is empty")
	flag.IntVar(&cfg.workers, "workers", 4, "evaluation workers for a spawned server (per shard in fleet mode)")
	flag.IntVar(&cfg.spawnShards, "spawn-shards", 0, "spawn this many peer-wired workers behind a -shard-bin router and drive the router (0 = off)")
	flag.StringVar(&cfg.shardBin, "shard-bin", "", "phasetune-shard binary for -spawn-shards fleet mode")
	flag.DurationVar(&cfg.killAfter, "kill-after", 0, "fleet mode: SIGKILL worker -kill-shard this long into the load window and restart it with -recover (0 = never)")
	flag.IntVar(&cfg.killShard, "kill-shard", 0, "fleet mode: index of the worker -kill-after kills")
	flag.BoolVar(&cfg.killNoRestart, "kill-no-restart", false, "fleet mode: the -kill-after victim stays dead — the router's supervisor must auto-promote its sessions onto their replicas; a canary session times the failover")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load window: how long new sessions keep arriving")
	flag.Float64Var(&cfg.rate, "rate", 8, "mean session arrivals per second (Poisson, open loop)")
	flag.IntVar(&cfg.closed, "closed", 0, "closed-loop concurrency: this many clients run sessions back to back for -duration (0 = open loop)")
	flag.IntVar(&cfg.steps, "session-steps", 5, "tuning operations per session script")
	flag.IntVar(&cfg.streamK, "stream-k", 0, "when >0, session scripts use streaming-commit batches of this width after one warm-up step")
	flag.IntVar(&cfg.sweepEvery, "sweep-every", 5, "every Nth session also runs a full sweep (0 = never)")
	flag.IntVar(&cfg.epochEvery, "epoch-every", 4, "every Nth session advances its epoch mid-script (0 = never)")
	flag.IntVar(&cfg.tiles, "tiles", 6, "application tiles (smaller = faster simulations)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for arrivals, session seeds, client jitter and the chaos plan")
	flag.DurationVar(&cfg.opTimeout, "op-timeout", 30*time.Second, "deadline per client operation, retries included")
	flag.DurationVar(&cfg.settle, "settle", 60*time.Second, "how long to wait for in-flight sessions after the load window")
	flag.BoolVar(&cfg.chaos, "chaos", false, "route traffic through a seeded chaosnet proxy")
	flag.IntVar(&cfg.verifySessions, "verify-sessions", 0, "replay the first N session scripts on an in-process reference engine and require bit-identical trajectories")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail if p99 op latency exceeds this (0 = no gate)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "phasetune-load:", err)
		os.Exit(1)
	}
}

// canarySession creates a session through the router whose id hashes to
// the given ring member — the probe target a kill-no-restart run times
// failover with. The load harness builds the same default ring the
// router does (names only, default virtual nodes), so it can pick an id
// the victim owns without asking anyone.
func canarySession(cfg config, routerBase string, names []string, victim string) (string, error) {
	ring, err := shard.NewRing(names, 0)
	if err != nil {
		return "", err
	}
	id := ""
	for i := 0; i < 1<<16; i++ {
		cand := fmt.Sprintf("canary%d", i)
		if ring.Lookup(cand) == victim {
			id = cand
			break
		}
	}
	if id == "" {
		return "", fmt.Errorf("no canary id hashed to %s", victim)
	}
	if err := fleet.Post(routerBase+"/v1/sessions", map[string]any{
		"id": id, "scenario": scenario, "strategy": strategy,
		"seed": cfg.seed, "tiles": cfg.tiles,
	}, nil); err != nil {
		return "", fmt.Errorf("create canary %s: %w", id, err)
	}
	// One committed step establishes replication (the first commit plans
	// the follower), so the victim's death finds the history already on
	// its replica.
	if err := fleet.Post(routerBase+"/v1/sessions/"+id+"/step", struct{}{}, nil); err != nil {
		return "", fmt.Errorf("step canary %s: %w", id, err)
	}
	return id, nil
}

// failoverReport is what the mid-window kill of one worker came to.
type failoverReport struct {
	shard     string
	restarted bool          // killed and restarted; otherwise it stayed dead
	err       error         // the restart, or its repoint, failed
	recovered bool          // the restart was repointed, or the canary answered again
	took      time.Duration // from SIGKILL to recovered
	probes    int           // canary probes sent, the successful one included
}

// runKill waits out -kill-after and SIGKILLs the victim. By default it
// brings the victim back after restartAfter with -recover over its
// journal directory on a fresh port, rewired, with the router
// repointed; in-flight requests to it ride through on client retries,
// since the router answers 502/503 with Retry-After until the repoint
// lands. With -kill-no-restart the victim stays dead, and the canary
// session it owned is probed until the supervisor's promotion makes it
// answer again. The probe is an undisguised client op, so the recovery
// time is the real client-visible outage: detection plus promotion
// plus repoint.
func runKill(cfg config, fl *fleet.Fleet, routerBase, canaryID string) *failoverReport {
	time.Sleep(cfg.killAfter)
	rep := &failoverReport{shard: fl.Names()[cfg.killShard], restarted: !cfg.killNoRestart}
	fmt.Printf("chaos: killed shard %s (%s)\n", rep.shard, fl.Worker(cfg.killShard).URL)
	fl.Kill(cfg.killShard)
	killT := time.Now()
	if rep.restarted {
		time.Sleep(restartAfter)
		if _, rep.err = fl.Restart(cfg.killShard); rep.err == nil {
			rep.recovered, rep.took = true, time.Since(killT)
		}
		return rep
	}
	for deadline := killT.Add(cfg.settle); time.Now().Before(deadline); {
		rep.probes++
		if err := fleet.Post(routerBase+"/v1/sessions/"+canaryID+"/step", struct{}{}, nil); err == nil {
			rep.recovered, rep.took = true, time.Since(killT)
			return rep
		}
		time.Sleep(50 * time.Millisecond)
	}
	return rep
}

// chaosPlan builds a transient-only fault schedule on the connection
// axis: outage windows, slowdown windows, bandwidth squeezes, jitter
// bursts and mid-stream reset strikes, each recurring while conns
// last. Everything heals — a load test needs faults the retry stack
// can actually survive, not a permanently dead link.
func chaosPlan(seed int64, conns int) *faults.Plan {
	rng := stats.NewRNG(seed)
	p := &faults.Plan{}
	// One fault window roughly every window connections, sized so that
	// chaosIntensity of all connections fall inside some window.
	window := 20
	// Half the windows inject hard faults (partitions, mid-stream
	// resets) that force the retry stack to do real work; the other
	// half shape traffic (latency, bandwidth, jitter) to stress the
	// latency SLOs.
	for at := rng.Intn(window); at < conns; at += window + rng.Intn(window) {
		dur := 1 + int(float64(window)*chaosIntensity*rng.Float64())
		switch rng.Intn(6) {
		case 0, 1:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Node: 0, Kind: faults.Outage, Duration: dur,
			})
		case 2:
			// A reset strike a few KiB into the connection.
			p.Events = append(p.Events, faults.Event{
				Iter: at, Offset: 1 + 7*rng.Float64(), Node: 0,
				Kind: faults.Slowdown, Factor: 0.9, Duration: 1,
			})
		case 3:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Node: 0, Kind: faults.Slowdown,
				Factor: 0.25 + 0.5*rng.Float64(), Duration: dur,
			})
		case 4:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Kind: faults.NetDegrade,
				Factor: 0.2 + 0.5*rng.Float64(), Duration: dur,
			})
		default:
			p.Events = append(p.Events, faults.Event{
				Iter: at, Kind: faults.Jitter,
				SD: 0.5 + rng.Float64(), Duration: dur,
			})
		}
	}
	return p
}

// opRecord is one timed client operation.
type opRecord struct {
	kind    string
	latency time.Duration
	err     error
}

// collector gathers op records across session goroutines.
type collector struct {
	mu  sync.Mutex
	ops []opRecord
}

func (c *collector) add(kind string, latency time.Duration, err error) {
	c.mu.Lock()
	c.ops = append(c.ops, opRecord{kind: kind, latency: latency, err: err})
	c.mu.Unlock()
}

func run(cfg config) error {
	// Resolve the target: a spawned fleet behind a router, or a single
	// server or router, attached or spawned.
	serveArgs := []string{"-workers", fmt.Sprint(cfg.workers)}
	var base string
	var fl *fleet.Fleet
	var proxy *chaosnet.Proxy
	if cfg.killAfter > 0 && cfg.spawnShards <= 0 {
		return fmt.Errorf("-kill-after needs -spawn-shards")
	}
	if cfg.killNoRestart && cfg.killAfter <= 0 {
		return fmt.Errorf("-kill-no-restart needs -kill-after")
	}
	if cfg.spawnShards > 0 {
		if cfg.serveBin == "" || cfg.shardBin == "" {
			return fmt.Errorf("-spawn-shards needs both -serve-bin and -shard-bin")
		}
		if cfg.chaos {
			return fmt.Errorf("-chaos drives a single -addr target, not a spawned fleet (use -kill-after for fleet chaos)")
		}
		if cfg.killAfter > 0 && (cfg.killShard < 0 || cfg.killShard >= cfg.spawnShards) {
			return fmt.Errorf("-kill-shard %d out of range (fleet of %d)", cfg.killShard, cfg.spawnShards)
		}
		// Caches peer-wired so a sweep evaluated on one shard is a cache
		// hit fleet-wide; replica-wired so every committed journal record
		// ships to the session's ring follower before the client sees it.
		var err error
		fl, err = fleet.New(fleet.Config{
			ServeBin: cfg.serveBin, RouterBin: cfg.shardBin, Size: cfg.spawnShards,
			ServeArgs:  serveArgs,
			RouterArgs: []string{"-seed", fmt.Sprint(cfg.seed)},
			Peers:      true, Replicas: true,
		})
		if err != nil {
			return err
		}
		defer fl.Stop()
		base = fl.Router().URL
		fmt.Printf("fleet: %d workers behind router %s\n", len(fl.Names()), base)
	} else {
		serverAddr := cfg.addr
		if serverAddr == "" {
			if cfg.serveBin == "" {
				return fmt.Errorf("need -addr, -spawn-shards or -serve-bin")
			}
			proc, err := fleet.Start(cfg.serveBin, serveArgs...)
			if err != nil {
				return err
			}
			defer proc.Kill()
			serverAddr = strings.TrimPrefix(proc.URL, "http://")
			fmt.Printf("spawned %s on %s\n", cfg.serveBin, serverAddr)
		}

		// Optionally interpose the chaos proxy. Sessions and sweeps each
		// cost a handful of HTTP connections; over-provision the plan
		// horizon so late connections still see faults.
		clientAddr := serverAddr
		if cfg.chaos {
			horizon := int(cfg.rate*cfg.duration.Seconds())*(cfg.steps+4)*2 + 256
			plan := chaosPlan(cfg.seed, horizon)
			var err error
			proxy, err = chaosnet.New(chaosnet.Config{
				Listen: "127.0.0.1:0", Target: serverAddr,
				Plan: plan, Seed: uint64(cfg.seed),
			})
			if err != nil {
				return err
			}
			defer proxy.Close()
			clientAddr = proxy.Addr()
			fmt.Printf("chaos proxy %s -> %s (%d fault events, seed %d)\n",
				clientAddr, serverAddr, len(plan.Events), cfg.seed)
		}
		base = "http://" + clientAddr
	}

	// Under chaos, keep-alive would funnel every request down one or
	// two long-lived TCP connections and the connection-indexed fault
	// plan would never advance. Fresh connections per request give the
	// proxy a real axis to schedule faults on.
	var hc *http.Client
	if cfg.chaos {
		hc = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	}
	cl, err := client.New(client.Config{
		BaseURL:    base,
		HTTPClient: hc,
		// Nonzero: the session ids and idempotency keys the client
		// mints derive from its seed.
		Seed: uint64(cfg.seed)<<8 + 1,
		// Chaos and failover runs ride on retries; let the gates
		// judge the outcome.
		MaxAttempts: 10,
		// Don't let one black-holed connection eat a whole op deadline.
		AttemptTimeout: cfg.opTimeout / 3,
	})
	if err != nil {
		return err
	}
	if err := waitReady(cl, 30*time.Second); err != nil {
		return fmt.Errorf("%s never became ready: %w", base, err)
	}

	col := &collector{}
	ver := newVerifier(cfg.verifySessions)
	var wg sync.WaitGroup
	var launched, completed, failed int
	var mu sync.Mutex
	start := time.Now()
	finish := func(ok bool) {
		mu.Lock()
		if ok {
			completed++
		} else {
			failed++
		}
		mu.Unlock()
	}

	// Fleet chaos: one worker dies mid-window. With -kill-no-restart it
	// stays dead — the router's supervisor must promote its sessions
	// onto their replicas, and a canary session it owned times the
	// client-visible outage. Otherwise it comes back via journal
	// recovery and a repoint. The load keeps flowing either way.
	var foCh chan *failoverReport
	if cfg.killAfter > 0 {
		canaryID := ""
		if cfg.killNoRestart {
			if canaryID, err = canarySession(cfg, base, fl.Names(), fl.Names()[cfg.killShard]); err != nil {
				return err
			}
		}
		foCh = make(chan *failoverReport, 1)
		go func() { foCh <- runKill(cfg, fl, base, canaryID) }()
	}

	if cfg.closed > 0 {
		// Closed loop: C clients run sessions back to back, so load is
		// capacity-limited, not arrival-limited.
		var next atomic.Int64
		deadline := start.Add(cfg.duration)
		for c := 0; c < cfg.closed; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					idx := int(next.Add(1)) - 1
					mu.Lock()
					launched++
					mu.Unlock()
					finish(runSession(cfg, cl, col, ver, idx))
				}
			}()
		}
	} else {
		// The open loop: Poisson arrivals for cfg.duration, each
		// session an independent goroutine running its script.
		arrivals := stats.NewRNG(cfg.seed)
		for i := 0; time.Since(start) < cfg.duration; i++ {
			wg.Add(1)
			launched++
			go func(idx int) {
				defer wg.Done()
				finish(runSession(cfg, cl, col, ver, idx))
			}(i)
			time.Sleep(time.Duration(arrivals.Exponential(cfg.rate) * float64(time.Second)))
		}
	}

	// Drain: the window is over, in-flight sessions get cfg.settle to
	// finish. A hung session fails the run.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.settle):
		return fmt.Errorf("sessions still running %v after the load window", cfg.settle)
	}

	sum := col.summarize()
	sum.launched, sum.completed, sum.failed = launched, completed, failed
	sum.client = cl.Snapshot()
	if proxy != nil {
		cs := proxy.Snapshot()
		sum.chaos = &cs
	}
	if foCh != nil {
		// Bounded: -kill-after, then fleet.Timeout per restart step or
		// cfg.settle of canary probes.
		sum.failover = <-foCh
	}
	if ver != nil {
		sum.determinism = ver.verify(cfg)
	}
	sum.print()
	if v := violations(sum, cfg.sloP99); len(v) > 0 {
		return fmt.Errorf("gate violated: %s", strings.Join(v, "; "))
	}
	return nil
}

// waitReady polls /readyz until the server serves or the deadline
// passes.
func waitReady(cl *client.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		last = cl.Ready(ctx)
		cancel()
		if last == nil {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return last
}

// runSession runs one session script: create, a step/batch mix (or a
// warm-up step plus streaming batches with -stream-k), an optional
// epoch advance, an optional sweep, and a final result fetch. Returns
// false if any operation failed beyond what retries could fix.
func runSession(cfg config, cl *client.Client, col *collector, ver *verifier, idx int) bool {
	ok := true
	timed := func(kind string, f func(ctx context.Context) error) {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.opTimeout)
		defer cancel()
		t0 := time.Now()
		err := f(ctx)
		col.add(kind, time.Since(t0), err)
		if err != nil {
			ok = false
		}
	}

	var sess *client.Session
	timed("create", func(ctx context.Context) error {
		var err error
		sess, err = cl.CreateSession(ctx, client.CreateSessionRequest{
			Scenario: scenario,
			Strategy: strategy,
			Seed:     cfg.seed + int64(idx),
			Tiles:    cfg.tiles,
		})
		return err
	})
	if sess == nil {
		return false
	}
	for j := 0; j < cfg.steps; j++ {
		switch {
		case cfg.streamK > 0 && j > 0:
			timed("stream-step", func(ctx context.Context) error {
				_, err := sess.StreamStep(ctx, cfg.streamK)
				return err
			})
		case j%3 == 2 && cfg.streamK == 0:
			timed("batch-step", func(ctx context.Context) error {
				_, err := sess.BatchStep(ctx, batchK)
				return err
			})
		default:
			// Stream scripts lead with one sequential step so the
			// constant-liar driver proposes full-width batches after it.
			timed("step", func(ctx context.Context) error {
				_, err := sess.Step(ctx)
				return err
			})
		}
		if cfg.epochEvery > 0 && idx%cfg.epochEvery == cfg.epochEvery-1 && j == cfg.steps/2 {
			timed("advance-epoch", func(ctx context.Context) error {
				_, err := sess.AdvanceEpoch(ctx)
				return err
			})
		}
	}
	if cfg.sweepEvery > 0 && idx%cfg.sweepEvery == cfg.sweepEvery-1 {
		timed("sweep", func(ctx context.Context) error {
			_, err := cl.Sweep(ctx, client.SweepRequest{
				Scenario: scenario, Tiles: cfg.tiles, Seed: cfg.seed,
			})
			return err
		})
	}
	timed("result", func(ctx context.Context) error {
		res, err := sess.Result(ctx)
		if err != nil {
			return err
		}
		if res.Iterations == 0 {
			return fmt.Errorf("session %s finished with zero iterations", sess.Info.ID)
		}
		if ver.want(idx) {
			ver.record(idx, res)
		}
		return nil
	})
	return ok
}

// verifier collects the fleet-reported trajectories of the first
// `limit` sessions for post-run replay against a reference engine.
type verifier struct {
	mu    sync.Mutex
	limit int
	got   map[int]engine.SessionResult
}

func newVerifier(limit int) *verifier {
	if limit <= 0 {
		return nil
	}
	return &verifier{limit: limit, got: map[int]engine.SessionResult{}}
}

func (v *verifier) want(idx int) bool { return v != nil && idx < v.limit }

func (v *verifier) record(idx int, res engine.SessionResult) {
	v.mu.Lock()
	v.got[idx] = res
	v.mu.Unlock()
}

// determinismReport says how many session trajectories were replayed on
// an in-process engine and which ones came back different.
type determinismReport struct {
	checked    int
	mismatches []string
}

// verify recomputes every observation of each collected session on an
// in-process evaluator and compares bit for bit. The invariant a fleet
// must preserve is the engine's observation contract: whatever actions
// the constant-liar driver proposed (proposals legitimately depend on
// cache warmth — a cached makespan is a "perfect lie" that steers the
// next proposal), every committed observation must be exactly
//
//	duration[i] = Evaluate(actions[i]) + noise[i]
//
// with noise drawn sequentially from the session's seed. A shard that
// served a corrupted cache value, a peer that round-tripped a float
// inexactly, or a stream commit that skipped or reordered an
// observation all fail here, on any deployment shape.
func (v *verifier) verify(cfg config) *determinismReport {
	rep := &determinismReport{}
	idxs := make([]int, 0, len(v.got))
	for idx := range v.got {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		rep.checked++
		if diff := checkObservations(cfg, idx, v.got[idx]); diff != "" {
			rep.mismatches = append(rep.mismatches, fmt.Sprintf("session %d: %s", idx, diff))
		}
	}
	return rep
}

// checkObservations verifies one session's observation log against the
// deterministic simulator and the seeded noise stream; "" means every
// bit matched.
func checkObservations(cfg config, idx int, got engine.SessionResult) string {
	sc, ok := platform.ScenarioByKey(scenario)
	if !ok {
		return fmt.Sprintf("unknown scenario %q", scenario)
	}
	ev := harness.NewEvaluator(sc, harness.SimOptions{Tiles: cfg.tiles})
	noise := stats.NewRNG(cfg.seed + int64(idx))
	if got.Iterations == 0 || got.Iterations != len(got.Actions) || got.Iterations != len(got.Durations) {
		return fmt.Sprintf("inconsistent trajectory: %d iterations, %d actions, %d durations",
			got.Iterations, len(got.Actions), len(got.Durations))
	}
	var total float64
	for i, a := range got.Actions {
		sim, err := ev.Evaluate(a)
		if err != nil {
			return fmt.Sprintf("evaluate action[%d]=%d: %v", i, a, err)
		}
		// The engine's observe(): one sequential noise draw per
		// committed observation, clamped below at 0.01.
		want := sim + noise.Normal(0, harness.NoiseSD)
		if want < 0.01 {
			want = 0.01
		}
		if math.Float64bits(got.Durations[i]) != math.Float64bits(want) {
			return fmt.Sprintf("duration[%d] %v != reference %v (bits differ)", i, got.Durations[i], want)
		}
		total += got.Durations[i]
	}
	if math.Float64bits(got.Total) != math.Float64bits(total) {
		return fmt.Sprintf("total %v != recomputed %v (bits differ)", got.Total, total)
	}
	return ""
}

// summary is what one run measured: everything the gates read and the
// report prints.
type summary struct {
	launched, completed, failed int // sessions

	ops, opErrors      int
	byKind, kindErrors map[string]int
	errSamples         []string // up to 8 distinct "kind: error" messages

	p50, p99, max time.Duration // over successful ops

	client      client.Stats
	chaos       *chaosnet.Stats    // nil without -chaos
	determinism *determinismReport // nil without -verify-sessions
	failover    *failoverReport    // nil without -kill-after
}

// summarize tallies the recorded ops: counts and failures by kind, a
// few distinct error messages, and nearest-rank latency percentiles.
func (c *collector) summarize() *summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &summary{byKind: map[string]int{}, kindErrors: map[string]int{}}
	seen := map[string]bool{}
	lats := make([]time.Duration, 0, len(c.ops))
	for _, op := range c.ops {
		s.ops++
		s.byKind[op.kind]++
		if op.err == nil {
			lats = append(lats, op.latency)
			continue
		}
		s.opErrors++
		s.kindErrors[op.kind]++
		// Keep a few distinct messages so a failed CI run is
		// diagnosable from its log alone.
		msg := op.kind + ": " + op.err.Error()
		if !seen[msg] && len(s.errSamples) < 8 {
			seen[msg] = true
			s.errSamples = append(s.errSamples, msg)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	s.p50, s.p99, s.max = percentile(lats, 0.50), percentile(lats, 0.99), percentile(lats, 1)
	return s
}

// print writes the summary to stdout, one topic per line.
func (s *summary) print() {
	fmt.Printf("sessions: %d launched, %d completed, %d failed\n", s.launched, s.completed, s.failed)
	fmt.Printf("ops: %d, %d failed\n", s.ops, s.opErrors)
	kinds := make([]string, 0, len(s.byKind))
	for k := range s.byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-13s %6d, %d failed\n", k, s.byKind[k], s.kindErrors[k])
	}
	for _, msg := range s.errSamples {
		fmt.Printf("  error %s\n", msg)
	}
	fmt.Printf("latency: p50 %.1fms, p99 %.1fms, max %.1fms\n", millis(s.p50), millis(s.p99), millis(s.max))
	fmt.Printf("client: %+v\n", s.client)
	if s.chaos != nil {
		fmt.Printf("chaos proxy: %+v\n", *s.chaos)
	}
	if d := s.determinism; d != nil {
		fmt.Printf("determinism: %d of %d sessions recomputed bit-for-bit\n", d.checked-len(d.mismatches), d.checked)
	}
	switch f := s.failover; {
	case f == nil:
	case f.err != nil:
		fmt.Printf("failover: restarting %s failed: %v\n", f.shard, f.err)
	case f.restarted:
		fmt.Printf("failover: %s restarted with -recover and repointed %.0fms after SIGKILL\n", f.shard, millis(f.took))
	case f.recovered:
		fmt.Printf("failover: %s's canary session answered %.0fms after SIGKILL (%d probes)\n", f.shard, millis(f.took), f.probes)
	default:
		fmt.Printf("failover: %s's canary session never answered (%d probes)\n", f.shard, f.probes)
	}
}

// violations returns one message per violated gate; none means the run
// passed. Every failed op counts: each one is retry-safe, so a failure
// is lost work.
func violations(s *summary, sloP99 time.Duration) []string {
	var v []string
	if s.opErrors > 0 {
		v = append(v, fmt.Sprintf("%d of %d ops failed", s.opErrors, s.ops))
	}
	if sloP99 > 0 && s.p99 > sloP99 {
		v = append(v, fmt.Sprintf("p99 %.1fms > -slo-p99 %v", millis(s.p99), sloP99))
	}
	if d := s.determinism; d != nil && len(d.mismatches) > 0 {
		v = append(v, "determinism: "+strings.Join(d.mismatches, "; "))
	}
	if f := s.failover; f != nil {
		switch {
		case f.err != nil:
			v = append(v, fmt.Sprintf("restart of killed shard %s failed: %v", f.shard, f.err))
		case !f.recovered:
			v = append(v, fmt.Sprintf("canary session of killed shard %s never recovered", f.shard))
		}
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the q-quantile of sorted latencies
// (nearest-rank); q=1 is the max.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
