// Command phasetune-shard fronts a fleet of phasetune-serve workers
// with one address: a consistent-hash router that pins every session
// to one worker by hashing its id, health-checks the fleet, and
// aggregates /metrics with a per-shard label.
//
//	# two workers, then the router
//	phasetune-serve -addr :9101 -journal-dir /var/lib/pt/w0 -peers http://127.0.0.1:9102 &
//	phasetune-serve -addr :9102 -journal-dir /var/lib/pt/w1 -peers http://127.0.0.1:9101 &
//	phasetune-shard -addr :9100 -shards w0=http://127.0.0.1:9101,w1=http://127.0.0.1:9102
//
//	# clients talk to the router exactly like a single worker
//	curl -s -X POST localhost:9100/v1/sessions \
//	     -d '{"scenario":"b","strategy":"GP-discontinuous","seed":42}'
//
// Session creation without an "id" mints one at the router so the
// create already lands on the owning shard; Idempotency-Key headers
// and Retry-After answers pass through untouched, and stream-step
// responses flush line by line through the proxy.
//
// Failover is automatic when the workers replicate (-supervise, the
// default): the router's health loop doubles as a supervisor that, on
// a dead owner, promotes each affected session's replica on the next
// live ring member, bumps its generation (fencing out the old owner),
// and repoints routing — no operator action, no restart of the dead
// process required. Manual failover remains available: restart the
// worker with -recover (same journal dir, any port) and repoint its
// name:
//
//	curl -s -X POST localhost:9100/admin/shards \
//	     -d '{"name":"w0","addr":"http://127.0.0.1:9201"}'
//
// The ring hashes names, not addresses, so every session the dead
// process owned routes to its recovered replacement.
//
// The router is also the fleet's observability front door. A proxied
// request that arrives with an X-Phasetune-Trace header joins that
// trace on the router and on every worker it reaches, so GET
// /v1/fleet/trace?trace=<id> can stitch the router's, the owner's and
// the replication follower's span slices into one Chrome trace with
// flow arrows across the process boundaries. A request without the
// header runs untraced everywhere: the router mints no trace for it.
// The supervisor's failover batches are traces of their own. GET
// /v1/events merges every process's structured event log — session
// lifecycle, replication state changes, shard down/up, supervisor
// promotions — into one causal order, and /metrics adds fleet-summed
// phasetune_fleet_* families next to the per-shard samples.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/obsv/wallclock"
	"phasetune/internal/shard"
)

type config struct {
	addr           string
	shards         string
	replicas       int
	seed           int64
	healthInterval time.Duration
	healthTimeout  time.Duration
	supervise      bool
	eventsFile     string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":9100", "listen address")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated name=addr worker list, e.g. w0=http://127.0.0.1:9101,w1=http://127.0.0.1:9102")
	flag.IntVar(&cfg.replicas, "replicas", 0, "virtual nodes per shard on the hash ring (0 = 64)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for Retry-After and health-probe jitter; minted session ids mix it with the router's start time")
	flag.DurationVar(&cfg.healthInterval, "health-interval", 0, "background health-check cadence (0 = 500ms)")
	flag.DurationVar(&cfg.healthTimeout, "health-timeout", 0, "per-probe timeout for health checks and metrics scrapes (0 = 1s)")
	flag.BoolVar(&cfg.supervise, "supervise", true, "promote sessions' replicas automatically when their owner shard goes down (requires workers wired with /v1/replica/fleet)")
	flag.StringVar(&cfg.eventsFile, "events-file", "", "append the router's structured event log as fsync'd JSON lines to this file (empty = in-memory ring only, still merged into GET /v1/events)")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// parseShards parses the -shards flag: name=addr pairs, comma
// separated.
func parseShards(s string) ([]shard.Shard, error) {
	var out []shard.Shard
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, addr, ok := strings.Cut(part, "=")
		if !ok || name == "" || addr == "" {
			return nil, fmt.Errorf("bad -shards entry %q (want name=addr)", part)
		}
		out = append(out, shard.Shard{Name: name, Addr: strings.TrimRight(addr, "/")})
	}
	if len(out) == 0 {
		return nil, errors.New("-shards is required (name=addr,...)")
	}
	return out, nil
}

func run(cfg config) error {
	shards, err := parseShards(cfg.shards)
	if err != nil {
		return err
	}
	evlog, err := events.NewFile(cfg.eventsFile, wallclock.Nanos)
	if err != nil {
		return err
	}
	rt, err := shard.New(shard.Options{
		Shards:         shards,
		Replicas:       cfg.replicas,
		Seed:           cfg.seed,
		HealthInterval: cfg.healthInterval,
		HealthTimeout:  cfg.healthTimeout,
		Supervise:      cfg.supervise,
		Trace:          obsv.NewTraceRecorder(wallclock.Nanos),
		Events:         evlog,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	defer func() { _ = evlog.Close() }()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Resolved address first, like phasetune-serve, so ":0" runs are
	// scriptable.
	fmt.Printf("phasetune-shard listening on %s (%d shards)\n", ln.Addr(), len(shards))
	for _, s := range shards {
		fmt.Printf("  shard %s -> %s\n", s.Name, s.Addr)
	}
	fmt.Println("  GET /readyz   GET /metrics   GET|POST /admin/shards   GET /admin/sessions")
	fmt.Println("  GET /v1/fleet/trace?trace=|session=   GET /v1/events (fleet-merged)")
	if cfg.supervise {
		fmt.Println("  supervising: dead owners' sessions auto-promote to their ring follower")
	}

	httpSrv := &http.Server{Handler: rt}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("phasetune-shard: shutting down")
	return httpSrv.Close()
}
