// Command phasetune-load is the SLO-driven load harness for
// phasetune-serve: an open-loop Poisson session generator that drives a
// real server process (optionally through the chaosnet fault-injecting
// proxy), measures client-observed latency and error rates, scrapes the
// server's Prometheus /metrics, and appends a machine-readable record
// to BENCH_service.json. With SLO gates set, a violated budget fails
// the process — which is how CI turns "the service got slower or
// flakier under faults" into a red build.
//
//	# 10 seconds of load against a spawned server, clean network
//	phasetune-load -serve-bin ./phasetune-serve -duration 10s -rate 8
//
//	# the same through a seeded chaos proxy, gated for CI
//	phasetune-load -serve-bin ./phasetune-serve -chaos -chaos-seed 7 \
//	    -slo-p99 1500ms -max-error-rate 0.02 -out BENCH_service.json
//
// Open loop means arrivals do not wait for completions: sessions start
// on a Poisson clock regardless of how slow the server is, so latency
// degradation shows up as latency, not as politely reduced load
// (avoiding coordinated omission). `-closed C` switches to a closed
// loop of C concurrent clients running sessions back to back — the
// right shape for throughput comparisons, where the question is "how
// many sessions per second does this deployment sustain", not "how
// does latency degrade under a fixed arrival rate".
//
// Sharded fleets are driven three ways:
//
//   - `-targets a:1,b:2` load-balances sessions across explicit
//     addresses, sticky per session (session idx -> target idx%len);
//   - `-spawn-shards N -serve-bin ... -shard-bin ...` spawns N worker
//     processes (each with its own journal dir, evaluation caches
//     peer-wired) behind a phasetune-shard router and drives the
//     router; `-kill-after` SIGKILLs one worker mid-run and restarts
//     it with -recover to exercise failover. Workers replicate every
//     committed journal record to their ring follower, and adding
//     `-kill-no-restart` leaves the victim dead: the router's
//     supervisor must promote the orphaned sessions onto their
//     replicas unattended, and the record's failover section reports
//     the measured client-visible outage;
//   - `-verify-sessions n` replays the first n session scripts on an
//     in-process reference engine after the run and compares the
//     trajectories bit for bit (math.Float64bits), proving the fleet
//     returned exactly what a single deterministic engine would have.
//
// `-warmup w` reports steady-state sessions/s: only observations
// committed between w and -duration count, divided by the measurement
// window and the script's observations per session. Without it,
// completions over total wall time structurally undercount sharded
// fleets, whose drain tapers shard by shard while a single saturated
// server drains at full pool utilization.
//
// Every mutating request goes through internal/client, so chaos- or
// failover-induced retries are idempotent and the error rate reflects
// genuinely lost work, not transport noise.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
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
	"phasetune/internal/fsutil"
	"phasetune/internal/harness"
	"phasetune/internal/obsv/obsvtest"
	"phasetune/internal/platform"
	"phasetune/internal/shard"
	"phasetune/internal/stats"
)

type config struct {
	addr     string
	targets  string
	serveBin string
	workers  int

	spawnShards   int
	shardBin      string
	maxInflight   int
	killAfter     time.Duration
	killShard     int
	restartAfter  time.Duration
	killNoRestart bool

	duration   time.Duration
	warmup     time.Duration
	rate       float64
	closed     int
	steps      int
	batchK     int
	streamK    int
	sweepEvery int
	epochEvery int
	scenario   string
	strategy   string
	tiles      int
	seed       int64
	opTimeout  time.Duration
	settle     time.Duration

	chaos          bool
	chaosSeed      int64
	chaosIntensity float64

	verifySessions int

	out   string
	label string

	sloP50       time.Duration
	sloP99       time.Duration
	sloP999      time.Duration
	maxErrorRate float64
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "", "target phasetune-serve base address (host:port); empty spawns -serve-bin")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated server addresses; sessions route to targets sticky by session index (overrides -addr)")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "phasetune-serve binary to spawn on a loopback port when -addr is empty")
	flag.IntVar(&cfg.workers, "workers", 4, "evaluation workers for a spawned server (per shard in fleet mode)")
	flag.IntVar(&cfg.spawnShards, "spawn-shards", 0, "spawn this many peer-wired workers behind a -shard-bin router and drive the router (0 = off)")
	flag.StringVar(&cfg.shardBin, "shard-bin", "", "phasetune-shard binary for -spawn-shards fleet mode")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "per-shard admission high-water mark passed to spawned workers (0 = server default)")
	flag.DurationVar(&cfg.killAfter, "kill-after", 0, "fleet mode: SIGKILL worker -kill-shard this long into the load window (0 = never)")
	flag.IntVar(&cfg.killShard, "kill-shard", 0, "fleet mode: index of the worker -kill-after kills")
	flag.DurationVar(&cfg.restartAfter, "restart-after", time.Second, "fleet mode: delay before the killed worker restarts with -recover")
	flag.BoolVar(&cfg.killNoRestart, "kill-no-restart", false, "fleet mode: the -kill-after victim stays dead — the router's supervisor must auto-promote its sessions onto their replicas; measures failover time into the record")
	flag.DurationVar(&cfg.duration, "duration", 5*time.Second, "load window: how long new sessions keep arriving")
	flag.DurationVar(&cfg.warmup, "warmup", 0, "steady-state measurement: sessions/s counts only observations committed between -warmup and -duration, converted via the script's observations per session (0 = whole-run completions over wall time)")
	flag.Float64Var(&cfg.rate, "rate", 8, "mean session arrivals per second (Poisson, open loop)")
	flag.IntVar(&cfg.closed, "closed", 0, "closed-loop concurrency: this many clients run sessions back to back for -duration (0 = open loop)")
	flag.IntVar(&cfg.steps, "session-steps", 5, "tuning operations per session script")
	flag.IntVar(&cfg.batchK, "batch-k", 2, "speculative width of batch-step operations")
	flag.IntVar(&cfg.streamK, "stream-k", 0, "when >0, session scripts use streaming-commit batches of this width after one warm-up step")
	flag.IntVar(&cfg.sweepEvery, "sweep-every", 5, "every Nth session also runs a full sweep (0 = never)")
	flag.IntVar(&cfg.epochEvery, "epoch-every", 4, "every Nth session advances its epoch mid-script (0 = never)")
	flag.StringVar(&cfg.scenario, "scenario", "b", "paper scenario key for sessions and sweeps")
	flag.StringVar(&cfg.strategy, "strategy", "DC", "tuning strategy for sessions")
	flag.IntVar(&cfg.tiles, "tiles", 6, "application tiles (smaller = faster simulations)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for arrivals, session seeds, client jitter and chaos")
	flag.DurationVar(&cfg.opTimeout, "op-timeout", 30*time.Second, "deadline per client operation, retries included")
	flag.DurationVar(&cfg.settle, "settle", 60*time.Second, "how long to wait for in-flight sessions after the load window")
	flag.BoolVar(&cfg.chaos, "chaos", false, "route traffic through a seeded chaosnet proxy")
	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 0, "chaos plan seed (0 = -seed)")
	flag.Float64Var(&cfg.chaosIntensity, "chaos-intensity", 0.3, "fraction of connections disturbed by the chaos plan")
	flag.IntVar(&cfg.verifySessions, "verify-sessions", 0, "replay the first N session scripts on an in-process reference engine and require bit-identical trajectories")
	flag.StringVar(&cfg.out, "out", "BENCH_service.json", "benchmark record file to append to (empty = stdout only)")
	flag.StringVar(&cfg.label, "label", "", "record label (defaults to a config summary)")
	flag.DurationVar(&cfg.sloP50, "slo-p50", 0, "fail if p50 op latency exceeds this (0 = no gate)")
	flag.DurationVar(&cfg.sloP99, "slo-p99", 0, "fail if p99 op latency exceeds this (0 = no gate)")
	flag.DurationVar(&cfg.sloP999, "slo-p999", 0, "fail if p99.9 op latency exceeds this (0 = no gate)")
	flag.Float64Var(&cfg.maxErrorRate, "max-error-rate", -1, "fail if the op error rate exceeds this fraction (negative = no gate)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "phasetune-load:", err)
		os.Exit(1)
	}
}

// workerArgs are the provisioning flags every spawned phasetune-serve
// gets.
func workerArgs(cfg config) []string {
	args := []string{"-workers", fmt.Sprint(cfg.workers)}
	if cfg.maxInflight > 0 {
		args = append(args, "-max-inflight", fmt.Sprint(cfg.maxInflight))
	}
	return args
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
		"id": id, "scenario": cfg.scenario, "strategy": cfg.strategy,
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

// failoverReport times an unattended failover: SIGKILL to the first
// successful operation on a session the dead shard owned, with zero
// operator involvement.
type failoverReport struct {
	KilledShard  string  `json:"killed_shard"`
	Restarted    bool    `json:"restarted"`
	Recovered    bool    `json:"recovered"`
	RecoveredMs  float64 `json:"recovered_ms,omitempty"`
	Probes       int     `json:"probes"`
	FailedProbes int     `json:"failed_probes"`
}

// runKillNoRestart waits out -kill-after, kills the victim for good,
// and probes a session it owned until the supervisor's promotion makes
// it answer again. The probe is an undisguised client op — recovered_ms
// is the real client-visible outage, detection plus promotion plus
// repoint.
func runKillNoRestart(cfg config, fl *fleet.Fleet, routerBase, canaryID string) *failoverReport {
	time.Sleep(cfg.killAfter)
	name := fl.Names()[cfg.killShard]
	rep := &failoverReport{KilledShard: name}
	url := fl.Worker(cfg.killShard).URL
	fl.Kill(cfg.killShard)
	fmt.Printf("chaos: killed shard %s (%s) — no restart, supervisor must promote\n", name, url)
	killT := time.Now()
	deadline := killT.Add(cfg.settle)
	for time.Now().Before(deadline) {
		rep.Probes++
		if err := fleet.Post(routerBase+"/v1/sessions/"+canaryID+"/step", struct{}{}, nil); err == nil {
			rep.Recovered = true
			rep.RecoveredMs = millis(time.Since(killT))
			fmt.Printf("failover: %s's session %s answered %.0fms after SIGKILL (%d failed probes)\n",
				name, canaryID, rep.RecoveredMs, rep.FailedProbes)
			return rep
		}
		rep.FailedProbes++
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Fprintf(os.Stderr, "phasetune-load: failover: session %s never recovered within %v\n", canaryID, cfg.settle)
	return rep
}

// chaosPlan builds a transient-only fault schedule on the connection
// axis: outage windows, slowdown windows, bandwidth squeezes, jitter
// bursts and mid-stream reset strikes, each recurring while conns
// last. Everything heals — a load test needs faults the retry stack
// can actually survive, not a permanently dead link.
func chaosPlan(seed int64, conns int, intensity float64) *faults.Plan {
	if intensity <= 0 {
		return &faults.Plan{}
	}
	if intensity > 1 {
		intensity = 1
	}
	rng := stats.NewRNG(seed)
	p := &faults.Plan{}
	// One fault window roughly every window connections, sized so that
	// `intensity` of all connections fall inside some window.
	window := 20
	// Half the windows inject hard faults (partitions, mid-stream
	// resets) that force the retry stack to do real work; the other
	// half shape traffic (latency, bandwidth, jitter) to stress the
	// latency SLOs.
	for at := rng.Intn(window); at < conns; at += window + rng.Intn(window) {
		dur := 1 + int(float64(window)*intensity*rng.Float64())
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
	// Resolve the target set: a spawned fleet behind a router, explicit
	// -targets, or a single server (attached or spawned), in that order
	// of precedence.
	var bases []string
	var metricsURL string
	var fl *fleet.Fleet
	var proxy *chaosnet.Proxy
	switch {
	case cfg.spawnShards > 0:
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
			ServeArgs:  workerArgs(cfg),
			RouterArgs: []string{"-seed", fmt.Sprint(cfg.seed)},
			Peers:      true, Replicas: true,
		})
		if err != nil {
			return err
		}
		defer fl.Stop()
		bases = []string{fl.Router().URL}
		metricsURL = bases[0] + "/metrics"
		fmt.Printf("fleet: %d workers behind router %s\n", len(fl.Names()), fl.Router().URL)
	case cfg.targets != "":
		if cfg.chaos {
			return fmt.Errorf("-chaos drives a single -addr target, not -targets")
		}
		for _, t := range strings.Split(cfg.targets, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				continue
			}
			if !strings.Contains(t, "://") {
				t = "http://" + t
			}
			bases = append(bases, strings.TrimRight(t, "/"))
		}
		if len(bases) == 0 {
			return fmt.Errorf("-targets held no addresses")
		}
		metricsURL = bases[0] + "/metrics"
	default:
		serverAddr := cfg.addr
		if serverAddr == "" {
			if cfg.serveBin == "" {
				return fmt.Errorf("need -addr, -targets, -spawn-shards or -serve-bin")
			}
			proc, err := fleet.Start(cfg.serveBin, workerArgs(cfg)...)
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
			chaosSeed := cfg.chaosSeed
			if chaosSeed == 0 {
				chaosSeed = cfg.seed
			}
			horizon := int(cfg.rate*cfg.duration.Seconds())*(cfg.steps+4)*2 + 256
			plan := chaosPlan(chaosSeed, horizon, cfg.chaosIntensity)
			var err error
			proxy, err = chaosnet.New(chaosnet.Config{
				Listen: "127.0.0.1:0", Target: serverAddr,
				Plan: plan, Seed: uint64(chaosSeed),
			})
			if err != nil {
				return err
			}
			defer proxy.Close()
			clientAddr = proxy.Addr()
			fmt.Printf("chaos proxy %s -> %s (%d fault events, seed %d)\n",
				clientAddr, serverAddr, len(plan.Events), chaosSeed)
		}
		bases = []string{"http://" + clientAddr}
		// Scrape the server directly, not through the proxy.
		metricsURL = "http://" + serverAddr + "/metrics"
	}

	// Under chaos, keep-alive would funnel every request down one or
	// two long-lived TCP connections and the connection-indexed fault
	// plan would never advance. Fresh connections per request give the
	// proxy a real axis to schedule faults on.
	var hc *http.Client
	if cfg.chaos {
		hc = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	}
	// One resilient client per target; sessions stick to
	// clients[idx%len] so a session's whole script lands on one server.
	clients := make([]*client.Client, len(bases))
	for i, base := range bases {
		var err error
		clients[i], err = client.New(client.Config{
			BaseURL:    base,
			HTTPClient: hc,
			Seed:       (uint64(cfg.seed) + uint64(i)) | 1,
			// Chaos and failover runs ride on retries; keep the budget
			// roomy and let the SLO gates judge the outcome.
			MaxAttempts: 10,
			RetryBudget: 64,
			// Don't let one black-holed connection eat a whole op deadline.
			AttemptTimeout: cfg.opTimeout / 3,
		})
		if err != nil {
			return err
		}
		if err := waitReady(clients[i], 30*time.Second); err != nil {
			return fmt.Errorf("%s never became ready: %w", base, err)
		}
	}
	pick := func(idx int) *client.Client { return clients[idx%len(clients)] }

	col := &collector{}
	ver := newVerifier(cfg.verifySessions)
	var wg sync.WaitGroup
	var launched, completed, abandoned int
	var mu sync.Mutex
	if cfg.warmup != 0 && (cfg.warmup < 0 || cfg.warmup >= cfg.duration) {
		return fmt.Errorf("-warmup %v must fall inside -duration %v", cfg.warmup, cfg.duration)
	}
	start := time.Now()
	var met *meter
	if cfg.warmup > 0 {
		met = &meter{warmupEnd: start.Add(cfg.warmup), windowEnd: start.Add(cfg.duration)}
	}
	finish := func(ok bool) {
		mu.Lock()
		if ok {
			completed++
		} else {
			abandoned++
		}
		mu.Unlock()
	}

	// Fleet chaos: one worker dies mid-window. With -kill-no-restart it
	// stays dead — the router's supervisor must promote its sessions
	// onto their replicas, and a canary session it owned times the
	// client-visible outage. Otherwise it comes back via journal
	// recovery and a manual repoint. The load keeps flowing either way.
	var foCh chan *failoverReport
	if cfg.killNoRestart {
		if fl == nil || cfg.killAfter <= 0 {
			return fmt.Errorf("-kill-no-restart needs -spawn-shards and -kill-after")
		}
		canaryID, err := canarySession(cfg, bases[0], fl.Names(), fl.Names()[cfg.killShard])
		if err != nil {
			return err
		}
		foCh = make(chan *failoverReport, 1)
		go func(base string) { foCh <- runKillNoRestart(cfg, fl, base, canaryID) }(bases[0])
	} else if fl != nil && cfg.killAfter > 0 {
		// The victim comes back with -recover over its journal directory
		// on a fresh port, rewired, with the router repointed. In-flight
		// requests to it ride through on client retries: the router
		// answers 502/503 with Retry-After until the repoint lands.
		go func() {
			time.Sleep(cfg.killAfter)
			name := fl.Names()[cfg.killShard]
			fmt.Printf("chaos: killed shard %s (%s)\n", name, fl.Worker(cfg.killShard).URL)
			fl.Kill(cfg.killShard)
			time.Sleep(cfg.restartAfter)
			w, err := fl.Restart(cfg.killShard)
			if err != nil {
				fmt.Fprintln(os.Stderr, "phasetune-load: kill/restart:", err)
				return
			}
			fmt.Printf("chaos: restarted %s on %s (journal recovery), router repointed\n", name, w.URL)
		}()
	}

	mode := "open"
	if cfg.closed > 0 {
		// Closed loop: C clients run sessions back to back. Throughput
		// is capacity-limited, not arrival-limited — the shape for
		// comparing deployments.
		mode = "closed"
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
					finish(runSession(cfg, pick(idx), col, ver, met, idx))
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
				finish(runSession(cfg, pick(idx), col, ver, met, idx))
			}(i)
			time.Sleep(time.Duration(arrivals.Exponential(cfg.rate) * float64(time.Second)))
		}
	}
	loadWindow := time.Since(start)

	// Drain: the window is over, in-flight sessions get cfg.settle to
	// finish. A hung session counts against the error budget.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(cfg.settle):
		return fmt.Errorf("sessions still running %v after the load window", cfg.settle)
	}
	wall := time.Since(start)

	var failover *failoverReport
	if foCh != nil {
		failover = <-foCh // bounded: the probe loop gives up after cfg.settle
	}

	metrics, merr := scrapeMetrics(metricsURL)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "metrics scrape failed:", merr)
	}

	rec := buildRecord(cfg, col, clients, proxy, metrics, loadWindow, wall, launched, completed, abandoned)
	rec.Mode = mode
	rec.Shards = len(bases)
	if fl != nil {
		rec.Shards = len(fl.Names())
		rec.WorkersPerShard = cfg.workers
		rec.MaxInflightPerShard = cfg.maxInflight
	}
	rec.Cores = runtime.NumCPU()
	if failover != nil {
		failover.Restarted = false
		rec.Failover = failover
	} else if fl != nil && cfg.killAfter > 0 {
		rec.Failover = &failoverReport{KilledShard: fmt.Sprintf("w%d", cfg.killShard), Restarted: true, Recovered: true}
	}
	if wall > 0 {
		rec.SessionsPerS = float64(completed) / wall.Seconds()
	}
	if met != nil {
		span := (cfg.duration - cfg.warmup).Seconds()
		rec.WarmupS = cfg.warmup.Seconds()
		rec.MeasuredWindowS = span
		rec.SessionsPerS = float64(met.evals.Load()) / span / float64(evalsPerSession(cfg))
	}
	if ver != nil {
		rec.Determinism = ver.verify(cfg)
		fmt.Printf("determinism: %d observation logs recomputed bit-for-bit, ok=%v\n",
			rec.Determinism.Checked, rec.Determinism.OK)
	}
	applyGates(cfg, rec)
	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if cfg.out != "" {
		if err := appendRecord(cfg.out, rec); err != nil {
			return fmt.Errorf("append %s: %w", cfg.out, err)
		}
		fmt.Printf("appended record to %s\n", cfg.out)
	}
	return checkGates(cfg, rec)
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

// meter counts committed observations finishing inside the steady-state
// measurement interval — after -warmup, before the load window closes.
// Completions-over-wall-time undercounts a sharded fleet: its drain
// tapers shard by shard while a single saturated server drains at full
// rate, so the wall-clock average punishes exactly the deployment being
// measured. Step completions reach steady state within one op duration,
// making a short warmup sufficient where session completions would need
// one full session latency.
type meter struct {
	warmupEnd time.Time
	windowEnd time.Time
	evals     atomic.Int64
}

func (m *meter) add(n int) {
	if m == nil || n <= 0 {
		return
	}
	if now := time.Now(); now.After(m.warmupEnd) && !now.After(m.windowEnd) {
		m.evals.Add(int64(n))
	}
}

// evalsPerSession is how many observations one session script commits —
// the conversion between the steady-state observation rate and session
// throughput when -warmup trims ramp-up and drain out of the measure.
func evalsPerSession(cfg config) int {
	n := 0
	for j := 0; j < cfg.steps; j++ {
		switch {
		case cfg.streamK > 0 && j > 0:
			n += cfg.streamK
		case j%3 == 2 && cfg.streamK == 0:
			n += cfg.batchK
		default:
			n++
		}
	}
	return n
}

// runSession runs one session script: create, a step/batch mix (or a
// warm-up step plus streaming batches with -stream-k), an optional
// epoch advance, an optional sweep, and a final result fetch. Returns
// false if any operation failed beyond what retries could fix.
func runSession(cfg config, cl *client.Client, col *collector, ver *verifier, met *meter, idx int) bool {
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
		req := client.CreateSessionRequest{
			Scenario: cfg.scenario,
			Strategy: cfg.strategy,
			Seed:     cfg.seed + int64(idx),
			Tiles:    cfg.tiles,
		}
		var err error
		sess, err = cl.CreateSession(ctx, req)
		if cfg.spawnShards == 0 {
			return err
		}
		// Fleet mode drives kills: a create torn mid-request by the
		// victim's SIGKILL has no idempotency key the client could
		// replay, so the harness retries as a brand-new session — the
		// router mints a fresh id each attempt, and a first attempt
		// that committed before the kill is just an idle orphan on the
		// dead shard. Only genuine unavailability should spend the
		// error budget.
		backoff := 100 * time.Millisecond
		for err != nil && ctx.Err() == nil {
			select {
			case <-ctx.Done():
				return err
			case <-time.After(backoff):
			}
			if backoff < 2*time.Second {
				backoff *= 2
			}
			sess, err = cl.CreateSession(ctx, req)
		}
		return err
	})
	if sess == nil {
		return false
	}
	for j := 0; j < cfg.steps; j++ {
		switch {
		case cfg.streamK > 0 && j > 0:
			timed("stream-step", func(ctx context.Context) error {
				res, err := sess.StreamStep(ctx, cfg.streamK)
				met.add(len(res))
				return err
			})
		case j%3 == 2 && cfg.streamK == 0:
			timed("batch-step", func(ctx context.Context) error {
				res, err := sess.BatchStep(ctx, cfg.batchK)
				met.add(len(res))
				return err
			})
		default:
			// Stream scripts lead with one sequential step so the
			// constant-liar driver proposes full-width batches after it.
			timed("step", func(ctx context.Context) error {
				_, err := sess.Step(ctx)
				if err == nil {
					met.add(1)
				}
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
				Scenario: cfg.scenario, Tiles: cfg.tiles, Seed: cfg.seed,
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

// determinismReport is the record's proof section: how many session
// trajectories were replayed on an in-process engine and whether every
// one came back bit-identical.
type determinismReport struct {
	Checked    int      `json:"checked"`
	OK         bool     `json:"ok"`
	Mismatches []string `json:"mismatches,omitempty"`
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
	rep := &determinismReport{OK: true}
	idxs := make([]int, 0, len(v.got))
	for idx := range v.got {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		rep.Checked++
		if diff := checkObservations(cfg, idx, v.got[idx]); diff != "" {
			rep.OK = false
			rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("session %d: %s", idx, diff))
		}
	}
	return rep
}

// checkObservations verifies one session's observation log against the
// deterministic simulator and the seeded noise stream; "" means every
// bit matched.
func checkObservations(cfg config, idx int, got engine.SessionResult) string {
	sc, ok := platform.ScenarioByKey(cfg.scenario)
	if !ok {
		return fmt.Sprintf("unknown scenario %q", cfg.scenario)
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

// scrapeMetrics pulls the interesting server-side numbers out of the
// Prometheus exposition.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	fams, err := obsvtest.ParsePrometheus(data)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sum := func(name string) float64 {
		fam, ok := fams[name]
		if !ok {
			return 0
		}
		var s float64
		for _, smp := range fam.Samples {
			if smp.Name == name {
				s += smp.Value
			}
		}
		return s
	}
	out["http_requests_total"] = sum("phasetune_http_requests_total")
	out["http_rejections_total"] = sum("phasetune_http_rejections_total")
	out["iterations_total"] = sum("phasetune_iterations_total")
	out["cache_hits_total"] = sum("phasetune_cache_hits_total")
	out["cache_misses_total"] = sum("phasetune_cache_misses_total")
	out["peer_cache_hits_total"] = sum("phasetune_peer_cache_hits_total")
	out["peer_cache_misses_total"] = sum("phasetune_peer_cache_misses_total")
	out["peer_cache_shares_total"] = sum("phasetune_peer_cache_shares_total")
	out["sessions"] = sum("phasetune_sessions")
	out["router_promotions_total"] = sum("phasetune_router_promotions_total")
	out["replica_ships_total"] = sum("phasetune_replica_ships_total")
	out["replica_promotions_total"] = sum("phasetune_replica_promotions_total")
	out["replica_degraded_total"] = sum("phasetune_replica_degraded_total")
	out["replica_rejects_total"] = sum("phasetune_replica_rejects_total")
	return out, nil
}

// latencyMillis are the reported client-observed percentiles.
type latencyMillis struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
}

// record is one BENCH_service.json / BENCH_shard.json entry.
type record struct {
	Label     string  `json:"label"`
	Timestamp string  `json:"timestamp"`
	Mode      string  `json:"mode"`
	Chaos     bool    `json:"chaos"`
	Seed      int64   `json:"seed"`
	RatePerS  float64 `json:"rate_per_s"`
	DurationS float64 `json:"duration_s"`
	WallS     float64 `json:"wall_s"`

	// Deployment shape: shard count, the provisioning each spawned
	// shard ran with, and the cores of the box the whole fleet shared —
	// the context a throughput ratio is meaningless without.
	Shards              int     `json:"shards"`
	WorkersPerShard     int     `json:"workers_per_shard,omitempty"`
	MaxInflightPerShard int     `json:"max_inflight_per_shard,omitempty"`
	WarmupS             float64 `json:"warmup_s,omitempty"`
	MeasuredWindowS     float64 `json:"measured_window_s,omitempty"`
	Cores               int     `json:"cores"`

	SessionsPerS float64 `json:"sessions_per_s"`

	Determinism *determinismReport `json:"determinism,omitempty"`
	Failover    *failoverReport    `json:"failover,omitempty"`

	Sessions struct {
		Launched  int `json:"launched"`
		Completed int `json:"completed"`
		Failed    int `json:"failed"`
	} `json:"sessions"`

	Ops struct {
		Total        int            `json:"total"`
		Errors       int            `json:"errors"`
		ErrorRate    float64        `json:"error_rate"`
		PerSecond    float64        `json:"per_second"`
		ByKind       map[string]int `json:"by_kind"`
		KindErrors   map[string]int `json:"kind_errors,omitempty"`
		ErrorSamples []string       `json:"error_samples,omitempty"`
	} `json:"ops"`

	Latency latencyMillis `json:"latency"`

	Client struct {
		Attempts     uint64 `json:"attempts"`
		Retries      uint64 `json:"retries"`
		Replays      uint64 `json:"replays"`
		BreakerTrips uint64 `json:"breaker_trips"`
		BudgetDenied uint64 `json:"budget_denied"`
	} `json:"client"`

	ChaosStats *chaosnet.Stats    `json:"chaos_stats,omitempty"`
	Server     map[string]float64 `json:"server_metrics,omitempty"`

	SLO struct {
		P50MsLimit   float64  `json:"p50_ms_limit,omitempty"`
		P99MsLimit   float64  `json:"p99_ms_limit,omitempty"`
		P999MsLimit  float64  `json:"p999_ms_limit,omitempty"`
		MaxErrorRate float64  `json:"max_error_rate,omitempty"`
		Pass         bool     `json:"pass"`
		Violations   []string `json:"violations,omitempty"`
	} `json:"slo"`
}

func buildRecord(cfg config, col *collector, clients []*client.Client, proxy *chaosnet.Proxy,
	metrics map[string]float64, loadWindow, wall time.Duration, launched, completed, abandoned int) *record {

	col.mu.Lock()
	ops := append([]opRecord(nil), col.ops...)
	col.mu.Unlock()

	rec := &record{
		Label:     cfg.label,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Chaos:     cfg.chaos,
		Seed:      cfg.seed,
		RatePerS:  cfg.rate,
		DurationS: loadWindow.Seconds(),
		WallS:     wall.Seconds(),
	}
	if rec.Label == "" {
		mode := "clean"
		if cfg.chaos {
			mode = "chaos"
		}
		rec.Label = fmt.Sprintf("%s rate=%.3g steps=%d %s", mode, cfg.rate, cfg.steps, cfg.scenario)
	}
	rec.Sessions.Launched = launched
	rec.Sessions.Completed = completed
	rec.Sessions.Failed = abandoned

	rec.Ops.ByKind = map[string]int{}
	rec.Ops.KindErrors = map[string]int{}
	seenErrs := map[string]bool{}
	lats := make([]time.Duration, 0, len(ops))
	for _, op := range ops {
		rec.Ops.Total++
		rec.Ops.ByKind[op.kind]++
		if op.err != nil {
			rec.Ops.Errors++
			rec.Ops.KindErrors[op.kind]++
			// Keep a few distinct messages so a budget breach in CI is
			// diagnosable from the uploaded record alone.
			msg := op.kind + ": " + op.err.Error()
			if !seenErrs[msg] && len(rec.Ops.ErrorSamples) < 8 {
				seenErrs[msg] = true
				rec.Ops.ErrorSamples = append(rec.Ops.ErrorSamples, msg)
			}
		} else {
			lats = append(lats, op.latency)
		}
	}
	if rec.Ops.Total > 0 {
		rec.Ops.ErrorRate = float64(rec.Ops.Errors) / float64(rec.Ops.Total)
	}
	if wall > 0 {
		rec.Ops.PerSecond = float64(rec.Ops.Total) / wall.Seconds()
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rec.Latency = latencyMillis{
		P50:  millis(percentile(lats, 0.50)),
		P99:  millis(percentile(lats, 0.99)),
		P999: millis(percentile(lats, 0.999)),
		Max:  millis(percentile(lats, 1)),
	}

	for _, cl := range clients {
		st := cl.Snapshot()
		rec.Client.Attempts += st.Attempts
		rec.Client.Retries += st.Retries
		rec.Client.Replays += st.Replays
		rec.Client.BreakerTrips += st.BreakerTrips
		rec.Client.BudgetDenied += st.BudgetDenied
	}
	if proxy != nil {
		cs := proxy.Snapshot()
		rec.ChaosStats = &cs
	}
	rec.Server = metrics
	return rec
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

// checkGates fills the record's SLO section (already persisted by the
// caller) and returns an error when a budget is violated.
func checkGates(cfg config, rec *record) error {
	if len(rec.SLO.Violations) > 0 {
		return fmt.Errorf("SLO violated: %s", strings.Join(rec.SLO.Violations, "; "))
	}
	return nil
}

// applyGates evaluates the configured SLOs against the measured run.
func applyGates(cfg config, rec *record) {
	gate := func(limitMs, gotMs float64, name string) {
		if limitMs > 0 && gotMs > limitMs {
			rec.SLO.Violations = append(rec.SLO.Violations,
				fmt.Sprintf("%s %.1fms > limit %.1fms", name, gotMs, limitMs))
		}
	}
	rec.SLO.P50MsLimit = millis(cfg.sloP50)
	rec.SLO.P99MsLimit = millis(cfg.sloP99)
	rec.SLO.P999MsLimit = millis(cfg.sloP999)
	gate(rec.SLO.P50MsLimit, rec.Latency.P50, "p50")
	gate(rec.SLO.P99MsLimit, rec.Latency.P99, "p99")
	gate(rec.SLO.P999MsLimit, rec.Latency.P999, "p99.9")
	if cfg.maxErrorRate >= 0 {
		rec.SLO.MaxErrorRate = cfg.maxErrorRate
		if rec.Ops.ErrorRate > cfg.maxErrorRate {
			rec.SLO.Violations = append(rec.SLO.Violations,
				fmt.Sprintf("error rate %.4f > budget %.4f", rec.Ops.ErrorRate, cfg.maxErrorRate))
		}
	}
	if rec.Determinism != nil && !rec.Determinism.OK {
		rec.SLO.Violations = append(rec.SLO.Violations,
			fmt.Sprintf("determinism: %s", strings.Join(rec.Determinism.Mismatches, "; ")))
	}
	if rec.Failover != nil && !rec.Failover.Recovered {
		rec.SLO.Violations = append(rec.SLO.Violations,
			fmt.Sprintf("failover: sessions of killed shard %s never recovered", rec.Failover.KilledShard))
	}
	rec.SLO.Pass = len(rec.SLO.Violations) == 0
}

// appendRecord appends rec to the JSON array in path (creating it if
// missing), written atomically.
func appendRecord(path string, rec *record) error {
	var records []json.RawMessage
	if data, err := os.ReadFile(path); err == nil && len(data) > 0 {
		if err := json.Unmarshal(data, &records); err != nil {
			// A non-array file (older single-object format): wrap it.
			records = []json.RawMessage{json.RawMessage(data)}
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	records = append(records, raw)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return fsutil.WriteFileAtomic(path, append(out, '\n'), 0o644)
}
