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
//
// -selfcheck spins two replica-wired in-process workers plus the
// router on loopback ports and drives routing, idempotent replay
// through the proxy, metrics aggregation, a traced stream-step
// stitched across three processes, the merged event log, and a
// failover repoint, then exits. -fleet-trace-out and -events-out write
// the stitched trace and merged event log to files (CI uploads them as
// artifacts).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"phasetune/internal/engine"
	"phasetune/internal/fsutil"
	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/obsv/obsvtest"
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
	fleetTraceOut  string
	eventsOut      string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":9100", "listen address")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated name=addr worker list, e.g. w0=http://127.0.0.1:9101,w1=http://127.0.0.1:9102")
	flag.IntVar(&cfg.replicas, "replicas", 0, "virtual nodes per shard on the hash ring (0 = 64)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for minted session ids and Retry-After jitter")
	flag.DurationVar(&cfg.healthInterval, "health-interval", 0, "background health-check cadence (0 = 500ms)")
	flag.DurationVar(&cfg.healthTimeout, "health-timeout", 0, "per-probe timeout for health checks and metrics scrapes (0 = 1s)")
	flag.BoolVar(&cfg.supervise, "supervise", true, "promote sessions' replicas automatically when their owner shard goes down (requires workers wired with /v1/replica/fleet)")
	flag.StringVar(&cfg.eventsFile, "events-file", "", "append the router's structured event log as fsync'd JSON lines to this file (empty = in-memory ring only, still merged into GET /v1/events)")
	flag.StringVar(&cfg.fleetTraceOut, "fleet-trace-out", "", "with -selfcheck: write the stitched three-process fleet trace to this file")
	flag.StringVar(&cfg.eventsOut, "events-out", "", "with -selfcheck: write the fleet-merged event log to this file")
	selfcheck := flag.Bool("selfcheck", false, "spin two replica-wired in-process workers plus the router on loopback, drive routing/replay/tracing/failover, exit")
	flag.Parse()

	if *selfcheck {
		if err := runSelfcheck(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck failed:", err)
			os.Exit(1)
		}
		return
	}
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
	evlog, err := newEventsLog(cfg.eventsFile)
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

// newEventsLog builds the router's structured event log: in-memory
// always, additionally appending fsync'd JSON lines when a path is
// configured.
func newEventsLog(path string) (*events.Log, error) {
	if path == "" {
		return events.New(wallclock.Nanos), nil
	}
	l, err := events.NewFile(path, wallclock.Nanos)
	if err != nil {
		return nil, fmt.Errorf("events file: %w", err)
	}
	return l, nil
}

// runSelfcheck drives the router against two replica-wired in-process
// workers: session routing, follow-up stickiness, idempotent replay
// through the proxy hop, aggregated metrics, a traced stream-step
// stitched across router+owner+follower, the fleet-merged event log,
// and a failover repoint.
func runSelfcheck(cfg config) error {
	worker := func() (*engine.Engine, *http.Server, string, func(), error) {
		dir, err := os.MkdirTemp("", "phasetune-shard-selfcheck-*")
		if err != nil {
			return nil, nil, "", nil, err
		}
		tel := wallclock.NewTelemetry()
		tel.Events = events.New(wallclock.Nanos)
		eng := engine.NewWithOptions(engine.Options{Workers: 1, JournalDir: dir, Telemetry: tel})
		srv := &http.Server{Handler: engine.NewServer(eng)}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, nil, "", nil, err
		}
		go func() { _ = srv.Serve(ln) }()
		return eng, srv, "http://" + ln.Addr().String(), func() { _ = os.RemoveAll(dir) }, nil
	}
	engA, srvA, addrA, cleanA, err := worker()
	if err != nil {
		return err
	}
	defer srvA.Close()
	defer cleanA()
	engB, srvB, addrB, cleanB, err := worker()
	if err != nil {
		return err
	}
	defer srvB.Close()
	defer cleanB()

	// Replica-wire the pair the way phasetune-serve's /v1/replica/fleet
	// would: each session's follower is the other ring member, so every
	// committed op lands on two processes and a traced request crosses
	// three.
	members := []shard.Shard{{Name: "w0", Addr: addrA}, {Name: "w1", Addr: addrB}}
	for i, eng := range []*engine.Engine{engA, engB} {
		plan, err := shard.FleetConfig{Self: members[i].Name, Members: members}.Planner()
		if err != nil {
			return err
		}
		eng.SetReplicaPlanner(plan)
	}

	rt, err := shard.New(shard.Options{
		Shards: members,
		Seed:   cfg.seed,
		Trace:  obsv.NewTraceRecorder(wallclock.Nanos),
		Events: events.New(wallclock.Nanos),
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	front := &http.Server{Handler: rt}
	go func() { _ = front.Serve(ln) }()
	defer front.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("selfcheck fleet: router %s, workers %s %s\n", base, addrA, addrB)

	// Route a handful of sessions; every id must be router-minted and
	// every follow-up must land on the shard that created it.
	idOn := map[string]string{} // one session id per shard, for the failover check
	for i := 0; i < 8; i++ {
		resp, err := http.Post(base+"/v1/sessions", "application/json",
			strings.NewReader(`{"scenario":"b","strategy":"DC","seed":7,"tiles":6}`))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("create %d: %d %s", i, resp.StatusCode, body)
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &created); err != nil {
			return err
		}
		if !strings.HasPrefix(created.ID, "r") {
			return fmt.Errorf("id %q not router-minted", created.ID)
		}
		shardName := resp.Header.Get("X-Phasetune-Shard")
		idOn[shardName] = created.ID

		sresp, err := http.Post(base+"/v1/sessions/"+created.ID+"/step", "application/json", nil)
		if err != nil {
			return err
		}
		sbody, _ := io.ReadAll(sresp.Body)
		_ = sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			return fmt.Errorf("step: %d %s", sresp.StatusCode, sbody)
		}
		if got := sresp.Header.Get("X-Phasetune-Shard"); got != shardName {
			return fmt.Errorf("session %s created on %s, stepped on %s", created.ID, shardName, got)
		}
	}
	if len(idOn) != 2 {
		return fmt.Errorf("8 sessions all landed on one shard: %v", idOn)
	}
	fmt.Println("routing ok: 8 sessions spread across both shards, follow-ups sticky")
	oneID := idOn["w0"] // the failover below kills and repoints w0

	// Idempotent replay must survive the proxy hop.
	keyed := func() (bool, []byte, error) {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+oneID+"/step", nil)
		if err != nil {
			return false, nil, err
		}
		req.Header.Set("Idempotency-Key", "shard-selfcheck-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return false, nil, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return false, nil, fmt.Errorf("keyed step: %d %s", resp.StatusCode, body)
		}
		return resp.Header.Get("Idempotency-Replayed") == "true", body, nil
	}
	replayed1, body1, err := keyed()
	if err != nil {
		return err
	}
	replayed2, body2, err := keyed()
	if err != nil {
		return err
	}
	if replayed1 || !replayed2 || !bytes.Equal(body1, body2) {
		return fmt.Errorf("idempotent replay through proxy broken: first=%v second=%v equal=%v",
			replayed1, replayed2, bytes.Equal(body1, body2))
	}
	fmt.Println("idempotency ok: retried key replayed byte-identically through the proxy")

	// Aggregated metrics carry both shard labels.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	mbody, _ := io.ReadAll(mresp.Body)
	_ = mresp.Body.Close()
	for _, want := range []string{`shard="w0"`, `shard="w1"`, "phasetune_router_proxied_total"} {
		if !strings.Contains(string(mbody), want) {
			return fmt.Errorf("aggregated metrics missing %q", want)
		}
	}
	fmt.Printf("metrics ok: %d bytes aggregated with shard labels\n", len(mbody))
	if !strings.Contains(string(mbody), "phasetune_fleet_") {
		return errors.New("aggregated metrics missing fleet-summed phasetune_fleet_* families")
	}

	// Distributed tracing: one traced stream-step through the router
	// must leave spans in three processes — router, session owner, and
	// the owner's replication follower (the replica append rides the
	// same trace) — and GET /v1/fleet/trace must stitch them into one
	// flow-linked document.
	const traceID = "cafef00dcafef00d"
	treq, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+oneID+"/stream-step",
		strings.NewReader(`{"k":2}`))
	if err != nil {
		return err
	}
	treq.Header.Set("Content-Type", "application/json")
	treq.Header.Set(obsv.TraceHeader, traceID+"-00000000000000a1")
	tresp, err := http.DefaultClient.Do(treq)
	if err != nil {
		return err
	}
	tbody, _ := io.ReadAll(tresp.Body)
	_ = tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		return fmt.Errorf("traced stream-step: %d %s", tresp.StatusCode, tbody)
	}
	// The follower's root span closes just after the owner's ship ack,
	// so poll briefly rather than race it.
	var fleetTrace []byte
	var procs int
	deadline := time.Now().Add(10 * time.Second)
	for {
		fresp, err := http.Get(base + "/v1/fleet/trace?trace=" + traceID)
		var verr error
		if err == nil {
			fbody, _ := io.ReadAll(fresp.Body)
			_ = fresp.Body.Close()
			if fresp.StatusCode == http.StatusOK {
				if procs, verr = obsvtest.ValidateFleetTrace(fbody, 3); verr == nil {
					fleetTrace = fbody
					break
				}
			} else {
				verr = fmt.Errorf("status %d: %s", fresp.StatusCode, fbody)
			}
		} else {
			verr = err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet trace never stitched three processes: %v", verr)
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Printf("fleet trace ok: %d processes flow-linked under trace %s (%d bytes)\n",
		procs, traceID, len(fleetTrace))
	if cfg.fleetTraceOut != "" {
		if err := fsutil.WriteFileAtomic(cfg.fleetTraceOut, fleetTrace, 0o644); err != nil {
			return fmt.Errorf("writing fleet trace: %w", err)
		}
		fmt.Printf("  wrote %s\n", cfg.fleetTraceOut)
	}

	// Failover: kill w0, repoint its name at a replacement serving the
	// same engine (standing in for journal recovery), and the sessions
	// it owned continue.
	_ = srvA.Close()
	rt.CheckNow()
	if resp, err := http.Get(base + "/readyz"); err != nil {
		return err
	} else {
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			return fmt.Errorf("readyz with a dead shard: %d", resp.StatusCode)
		}
	}
	lnR, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	replacement := &http.Server{Handler: engine.NewServer(engA)}
	go func() { _ = replacement.Serve(lnR) }()
	defer replacement.Close()
	repoint, _ := json.Marshal(shard.Shard{Name: "w0", Addr: "http://" + lnR.Addr().String()})
	resp, err := http.Post(base+"/admin/shards", "application/json", bytes.NewReader(repoint))
	if err != nil {
		return err
	}
	rbody, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repoint: %d %s", resp.StatusCode, rbody)
	}
	if resp, err := http.Get(base + "/readyz"); err != nil {
		return err
	} else {
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("readyz after repoint: %d", resp.StatusCode)
		}
	}
	if oneID != "" {
		sresp, err := http.Post(base+"/v1/sessions/"+oneID+"/step", "application/json", nil)
		if err != nil {
			return err
		}
		sbody, _ := io.ReadAll(sresp.Body)
		_ = sresp.Body.Close()
		if sresp.StatusCode != http.StatusOK {
			return fmt.Errorf("step after failover: %d %s", sresp.StatusCode, sbody)
		}
	}
	fmt.Println("failover ok: dead shard repointed, fleet ready, session resumed")

	// The fleet-merged event log: the router's shard.down/up transitions
	// around the repoint and the workers' session lifecycle interleave
	// into one causal order.
	eresp, err := http.Get(base + "/v1/events")
	if err != nil {
		return err
	}
	ebody, _ := io.ReadAll(eresp.Body)
	_ = eresp.Body.Close()
	if eresp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet events: %d %s", eresp.StatusCode, ebody)
	}
	var elog struct {
		Events []events.Event `json:"events"`
	}
	if err := json.Unmarshal(ebody, &elog); err != nil {
		return fmt.Errorf("fleet events: %w", err)
	}
	seenTypes := map[string]bool{}
	for _, ev := range elog.Events {
		seenTypes[ev.Type] = true
	}
	for _, want := range []string{"session.created", "shard.down", "shard.up"} {
		if !seenTypes[want] {
			return fmt.Errorf("fleet event log missing %q (have %v over %d events)",
				want, seenTypes, len(elog.Events))
		}
	}
	fmt.Printf("fleet events ok: %d merged events incl. session.created, shard.down, shard.up\n",
		len(elog.Events))
	if cfg.eventsOut != "" {
		if err := fsutil.WriteFileAtomic(cfg.eventsOut, ebody, 0o644); err != nil {
			return fmt.Errorf("writing fleet events: %w", err)
		}
		fmt.Printf("  wrote %s\n", cfg.eventsOut)
	}

	fmt.Println("selfcheck ok")
	return nil
}
