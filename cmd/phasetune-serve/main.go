// Command phasetune-serve exposes the concurrent tuning engine as an
// HTTP/JSON service: remote clients create tuning sessions, step them
// (sequentially or in speculative batches), run parallel f(n) sweeps
// and scrape /metrics — while a shared evaluation cache makes every
// session tuning the same system pay for each simulation once.
//
//	phasetune-serve -addr :8080 -workers 8 -journal-dir /var/lib/phasetune
//
//	# create a session and run a step
//	curl -s -X POST localhost:8080/v1/sessions \
//	     -d '{"scenario":"b","strategy":"GP-discontinuous","seed":42}'
//	curl -s -X POST localhost:8080/v1/sessions/s1/step -d '{}'
//
//	# Prometheus text exposition
//	curl -s localhost:8080/metrics
//
//	# a traced step, then the session's Chrome trace-event JSON
//	# (Perfetto-loadable)
//	curl -s -X POST localhost:8080/v1/sessions/s1/step -d '{}' \
//	     -H 'X-Phasetune-Trace: 00000000000000a1-00000000000000b2'
//	curl -s localhost:8080/v1/sessions/s1/trace
//
// Metrics are always on. A step, batch-step or stream-step is traced
// only when it carries an X-Phasetune-Trace context, as
// client.Config.Trace sends; the process keeps its traced requests in
// one store of fixed size, evicting the oldest. -trace-dir traces
// every step, with or without a context, and at shutdown writes each
// session's trace that the store still holds to <dir>/<id>.trace.json.
// -pprof-addr serves net/http/pprof on its own mux and listener
// (default off; an empty host or bare port binds loopback only).
//
// With -journal-dir every committed step is fsync'd to a per-session
// write-ahead journal before the client sees its result; after a crash,
// restarting with -recover replays the journals and every session
// continues bit-for-bit where it left off. SIGTERM/SIGINT trigger a
// graceful shutdown: /readyz flips to 503, in-flight requests drain
// (bounded by -drain-timeout), and the engine stops accepting work (no
// journal needs closing: each append closes its file). Snapshot files an
// earlier version left in -journal-dir are read on -recover, never
// written.
//
// -selfcheck starts the server on a loopback port and drives the whole
// lifecycle — health endpoints, a session, graceful shutdown, recovery
// from the journal — then exits; a deployment smoke test.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"phasetune/internal/engine"
	"phasetune/internal/fsutil"
	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/obsv/wallclock"
	"phasetune/internal/shard"
)

type config struct {
	addr         string
	workers      int
	journalDir   string
	recover      bool
	maxInFlight  int
	maxBody      int64
	evalTimeout  time.Duration
	drainTimeout time.Duration
	traceDir     string
	eventsFile   string
	pprofAddr    string
	peers        string
	peerTimeout  time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "concurrent evaluation bound (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.journalDir, "journal-dir", "", "directory for per-session write-ahead journals (empty = no durability)")
	flag.BoolVar(&cfg.recover, "recover", false, "replay journals in -journal-dir and resume every session before serving")
	flag.IntVar(&cfg.maxInFlight, "max-inflight", 0, "admission high-water mark for evaluation requests; beyond it the server answers 429 (0 = 4x workers)")
	flag.Int64Var(&cfg.maxBody, "max-body", 0, "request body size limit in bytes (0 = 1 MiB)")
	flag.DurationVar(&cfg.evalTimeout, "eval-timeout", 0, "per-request evaluation timeout (0 = none)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long graceful shutdown waits for in-flight requests")
	flag.StringVar(&cfg.traceDir, "trace-dir", "", "trace every step and, on shutdown, write the per-session Chrome trace-event JSON the trace store still holds to this directory (empty = only requests carrying an X-Phasetune-Trace context are traced, served at GET /v1/sessions/{id}/trace, no files)")
	flag.StringVar(&cfg.eventsFile, "events-file", "", "append the structured event log as fsync'd JSON lines to this file (empty = in-memory ring only, still served at GET /v1/events)")
	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "net/http/pprof listen address on its own mux, never the API listener (empty = off; a bare port binds loopback only)")
	flag.StringVar(&cfg.peers, "peers", "", "comma-separated base URLs of shard peers whose evaluation caches answer local misses (empty = no peer lookups; repointable at POST /v1/cache/peers)")
	flag.DurationVar(&cfg.peerTimeout, "peer-timeout", 0, "per-peer cache probe timeout (0 = 75ms); past it the worker simulates locally")
	selfcheck := flag.Bool("selfcheck", false, "run the full lifecycle (serve, session, shutdown, recover) on a loopback port, exit")
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

// run serves until SIGTERM/SIGINT, then drains and closes the engine.
func run(cfg config) error {
	if cfg.recover && cfg.journalDir == "" {
		return errors.New("-recover requires -journal-dir")
	}
	tel := wallclock.NewTelemetry()
	evlog, err := newEventsLog(cfg.eventsFile)
	if err != nil {
		return err
	}
	tel.Events = evlog
	eng := engine.NewWithOptions(engine.Options{
		Workers:    cfg.workers,
		JournalDir: cfg.journalDir,
		Telemetry:  tel,
	})
	srv := engine.NewServerWithOptions(eng, engine.ServerOptions{
		MaxInFlight:  cfg.maxInFlight,
		MaxBodyBytes: cfg.maxBody,
		EvalTimeout:  cfg.evalTimeout,
		TraceAll:     cfg.traceDir != "",
	})
	wirePeers(cfg, eng, srv)
	wireReplicaFleet(eng, srv)
	// The listener comes up before journal replay, so orchestrators and
	// chaos harnesses see liveness plus an honest /readyz "starting"
	// answer (503, recovery in progress) instead of connection refused;
	// every /v1 route rejects until recovery finishes and SetReady runs.
	if cfg.recover {
		srv.SetStarting()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The resolved address (not the flag) so ":0" deployments — tests,
	// chaos harnesses — can parse the port from the first output line.
	fmt.Printf("phasetune-serve listening on %s (%d evaluation workers)\n",
		ln.Addr(), eng.Workers())
	if cfg.journalDir != "" {
		fmt.Printf("  journaling sessions to %s\n", cfg.journalDir)
	}
	fmt.Println("  POST /v1/sessions {scenario, strategy, seed, tiles}")
	fmt.Println("  POST /v1/sessions/{id}/step | /batch-step {k} | /stream-step {k} | /advance-epoch")
	fmt.Println("  GET  /v1/sessions/{id}   GET /metrics   POST /v1/sweep")
	fmt.Println("  GET  /v1/sessions/{id}/trace   GET /healthz   GET /readyz")
	fmt.Println("  GET  /v1/cache/peek   GET|POST /v1/cache/peers")
	fmt.Println("  GET|POST /v1/replica/fleet   GET /v1/replica/status")
	fmt.Println("  GET  /v1/trace?trace=|session=   GET /v1/events")
	if cfg.eventsFile != "" {
		fmt.Printf("  event log appended to %s\n", cfg.eventsFile)
	}

	var pprofLn net.Listener
	if cfg.pprofAddr != "" {
		var err error
		pprofLn, err = startPprof(cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer pprofLn.Close()
		fmt.Printf("  pprof on http://%s/debug/pprof/ (separate mux)\n", pprofLn.Addr())
	}

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if cfg.recover {
		infos, err := eng.Recover()
		if err != nil {
			return fmt.Errorf("recover: %w", err)
		}
		for _, info := range infos {
			fmt.Printf("recovered session %s: %d iterations, epoch %d\n",
				info.ID, info.Iterations, info.Epoch)
		}
		fmt.Printf("recovered %d session(s) from %s\n", len(infos), cfg.journalDir)
		srv.SetReady()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()

	// Graceful shutdown: stop advertising readiness, drain in-flight
	// requests (each commits or aborts in its journal), then close the
	// engine's journals.
	fmt.Println("phasetune-serve: draining...")
	srv.SetDraining(true)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "drain incomplete:", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("closing engine: %w", err)
	}
	if err := evlog.Close(); err != nil {
		return fmt.Errorf("closing event log: %w", err)
	}
	if cfg.traceDir != "" {
		if err := writeSessionTraces(eng, cfg.traceDir); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
	}
	fmt.Println("phasetune-serve: shutdown complete")
	return nil
}

// wirePeers mounts the cross-shard cache layer: a PeerSet answering
// the engine's cache misses (fail-open, bounded probes) plus the admin
// routes that let a fleet operator repoint the peer list as workers
// move. Wired even with no initial peers so a worker can join a fleet
// after the fact.
func wirePeers(cfg config, eng *engine.Engine, srv *engine.Server) *shard.PeerSet {
	ps := shard.NewPeerSet(cfg.peerTimeout)
	if list := splitPeers(cfg.peers); len(list) > 0 {
		ps.SetPeers(list)
		fmt.Printf("  cache peers: %s\n", strings.Join(list, ", "))
	}
	eng.SetPeerLookup(ps.Lookup)
	srv.Handle("GET /v1/cache/peers", func(w http.ResponseWriter, r *http.Request) {
		srv.WriteJSON(w, http.StatusOK, map[string]any{"peers": ps.Peers()})
	})
	srv.Handle("POST /v1/cache/peers", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Peers []string `json:"peers"`
		}
		if err := srv.DecodeJSON(w, r, &req); err != nil {
			srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		ps.SetPeers(req.Peers)
		srv.WriteJSON(w, http.StatusOK, map[string]any{"peers": ps.Peers()})
	})
	return ps
}

// wireReplicaFleet mounts the replication topology routes. The
// shard.FleetConfig body names the same membership the shard router
// hashes over, so each session's follower needs no coordination with
// the router. Repointing the fleet rewires live sessions; their next
// commit performs a full resync to the new follower.
func wireReplicaFleet(eng *engine.Engine, srv *engine.Server) {
	var mu sync.Mutex
	var cur shard.FleetConfig
	srv.Handle("GET /v1/replica/fleet", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cfg := cur
		mu.Unlock()
		srv.WriteJSON(w, http.StatusOK, cfg)
	})
	srv.Handle("POST /v1/replica/fleet", func(w http.ResponseWriter, r *http.Request) {
		var req shard.FleetConfig
		if err := srv.DecodeJSON(w, r, &req); err != nil {
			srv.WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		plan, err := req.Planner()
		if err != nil {
			srv.WriteError(w, http.StatusBadRequest, err)
			return
		}
		// An empty membership plans nothing and disbands the fleet:
		// sessions stop replicating on their next commit.
		eng.SetReplicaPlanner(plan)
		mu.Lock()
		cur = req
		mu.Unlock()
		if plan != nil {
			fmt.Printf("  replica fleet: self=%s members=%d\n", req.Self, len(req.Members))
		}
		srv.WriteJSON(w, http.StatusOK, req)
	})
}

// newEventsLog builds the process's structured event log: in-memory
// always (so GET /v1/events and the router's fleet merge work out of
// the box), additionally appending fsync'd JSON lines when a path is
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

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// startPprof serves net/http/pprof on its own mux and listener — never
// the API mux, so profiling exposure stays separable from the service
// surface. An address without a host (":6060" or a bare "6060") binds
// loopback only; exposing pprof beyond localhost takes an explicit
// host.
func startPprof(addr string) (net.Listener, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		host, port = "", addr // a bare port number
	}
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, port))
	if err != nil {
		return nil, fmt.Errorf("pprof listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln, nil
}

// writeSessionTraces exports every recorded session trace to
// <dir>/<id>.trace.json (Perfetto-loadable Chrome trace-event JSON).
// A name that is not a valid session id could leave dir, so it is
// skipped.
func writeSessionTraces(eng *engine.Engine, dir string) error {
	tel := eng.Telemetry()
	if tel == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, id := range tel.Trace.Sessions() {
		if err := engine.ValidateSessionID(id); err != nil {
			fmt.Printf("  skipped trace %q: %v\n", id, err)
			continue
		}
		data, ok := tel.Trace.Export(id)
		if !ok {
			continue
		}
		path := filepath.Join(dir, id+".trace.json")
		if err := fsutil.WriteFileAtomic(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("  wrote trace %s\n", path)
	}
	return nil
}

// runSelfcheck exercises the full service lifecycle on an ephemeral
// loopback port: health endpoints, a journaled session driven through
// the real HTTP stack, draining readiness, graceful shutdown, and a
// recovery that must reproduce the session's state exactly.
func runSelfcheck(cfg config) error {
	dir := cfg.journalDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "phasetune-selfcheck-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}

	tel := wallclock.NewTelemetry()
	tel.Events = events.New(wallclock.Nanos)
	eng := engine.NewWithOptions(engine.Options{Workers: cfg.workers, JournalDir: dir, Telemetry: tel})
	srv := engine.NewServerWithOptions(eng, engine.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}

	// pprof always runs during selfcheck (loopback, ephemeral port) so
	// the separate-mux wiring is exercised on every deployment check.
	pprofAddr := cfg.pprofAddr
	if pprofAddr == "" {
		pprofAddr = "127.0.0.1:0"
	}
	pprofLn, err := startPprof(pprofAddr)
	if err != nil {
		return err
	}
	defer pprofLn.Close()
	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	if err := expectStatus(base+"/healthz", http.StatusOK); err != nil {
		return err
	}
	if err := expectStatus(base+"/readyz", http.StatusOK); err != nil {
		return err
	}

	body, err := json.Marshal(map[string]any{
		"scenario": "b", "strategy": "DC", "seed": 42, "tiles": 6,
	})
	if err != nil {
		return err
	}
	var created struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	if err := postJSON(base+"/v1/sessions", body, &created); err != nil {
		return fmt.Errorf("create session: %w", err)
	}
	for i := 0; i < 4; i++ {
		var step struct {
			Action   int     `json:"action"`
			Duration float64 `json:"duration"`
		}
		if err := postJSON(base+"/v1/sessions/"+created.ID+"/step", []byte("{}"), &step); err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
		fmt.Printf("iter %d: n=%-3d duration %.2f s\n", i, step.Action, step.Duration)
	}
	var batch struct {
		Steps []struct {
			Action int `json:"action"`
		} `json:"steps"`
	}
	if err := postJSON(base+"/v1/sessions/"+created.ID+"/batch-step", []byte(`{"k":2}`), &batch); err != nil {
		return fmt.Errorf("batch-step: %w", err)
	}
	fmt.Printf("batch-step: %d speculative steps\n", len(batch.Steps))

	var before engine.SessionResult
	if err := getJSON(base+"/v1/sessions/"+created.ID, &before); err != nil {
		return fmt.Errorf("result: %w", err)
	}

	// Telemetry surfaces: /metrics serves Prometheus text, the session
	// trace endpoint serves Chrome trace-event JSON, and pprof answers
	// on its own listener.
	status, text, err := fetch(base + "/metrics")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("metrics text: status %d, err %v", status, err)
	}
	if !strings.HasPrefix(string(text), "# HELP") || !strings.Contains(string(text), "phasetune_") {
		return fmt.Errorf("metrics text does not look like Prometheus exposition: %.80s", text)
	}
	status, traceData, err := fetch(base + "/v1/sessions/" + created.ID + "/trace")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("session trace: status %d, err %v", status, err)
	}
	if !bytes.Contains(traceData, []byte("traceEvents")) || !bytes.Contains(traceData, []byte("des.eval")) {
		return fmt.Errorf("session trace missing expected spans: %.120s", traceData)
	}
	fmt.Printf("telemetry ok: %d bytes of Prometheus text, %d bytes of session trace\n",
		len(text), len(traceData))
	var evResp struct {
		Events []events.Event `json:"events"`
	}
	if err := getJSON(base+"/v1/events", &evResp); err != nil {
		return fmt.Errorf("event log: %w", err)
	}
	createdSeen := false
	for _, ev := range evResp.Events {
		if ev.Type == "session.created" && ev.Session == created.ID {
			createdSeen = true
		}
	}
	if !createdSeen {
		return fmt.Errorf("event log missing session.created for %s (%d events)", created.ID, len(evResp.Events))
	}
	fmt.Printf("event log ok: %d events, session.created recorded\n", len(evResp.Events))
	status, _, err = fetch("http://" + pprofLn.Addr().String() + "/debug/pprof/cmdline")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("pprof cmdline: status %d, err %v", status, err)
	}
	fmt.Printf("pprof ok on %s (separate mux)\n", pprofLn.Addr())

	// Idempotent replay through the real HTTP stack: the same key must
	// return the journaled response byte-for-byte, marked as a replay,
	// without committing a second step.
	beforeIdem := before.Iterations
	status, first, _, err := postKeyed(base+"/v1/sessions/"+created.ID+"/step", "selfcheck-idem-1")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("keyed step: status %d, err %v", status, err)
	}
	status, again, replayed, err := postKeyed(base+"/v1/sessions/"+created.ID+"/step", "selfcheck-idem-1")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("replayed step: status %d, err %v", status, err)
	}
	if !replayed || !bytes.Equal(first, again) {
		return fmt.Errorf("idempotent replay broken: replayed=%t, bodies equal=%t", replayed, bytes.Equal(first, again))
	}
	var idemCheck engine.SessionResult
	if err := getJSON(base+"/v1/sessions/"+created.ID, &idemCheck); err != nil {
		return err
	}
	if idemCheck.Iterations != beforeIdem+1 {
		return fmt.Errorf("retried key double-applied: %d iterations, want %d", idemCheck.Iterations, beforeIdem+1)
	}
	before = idemCheck
	fmt.Println("idempotent replay ok: retried key served the journaled result")

	// The readiness lifecycle tells "not yet recovered" apart from
	// "draining", each with a machine-readable reason, and the starting
	// state blocks the API surface.
	srv.SetStarting()
	st, reason, err := readyzState(base)
	if err != nil || st != "starting" || !strings.Contains(reason, "recovery") {
		return fmt.Errorf("starting readyz: status %q reason %q, err %v", st, reason, err)
	}
	if err := expectStatus(base+"/v1/sessions/"+created.ID, http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("API surface while starting: %w", err)
	}
	srv.SetReady()
	if err := expectStatus(base+"/readyz", http.StatusOK); err != nil {
		return fmt.Errorf("readiness after SetReady: %w", err)
	}
	fmt.Println("readyz lifecycle ok: starting blocks the API and names recovery")

	// Graceful shutdown: readiness must flip before the listener stops,
	// with the draining reason — while the API keeps serving admitted
	// work.
	srv.SetDraining(true)
	st, reason, err = readyzState(base)
	if err != nil || st != "draining" || !strings.Contains(reason, "shutdown") {
		return fmt.Errorf("draining readyz: status %q reason %q, err %v", st, reason, err)
	}
	if err := expectStatus(base+"/v1/sessions/"+created.ID, http.StatusOK); err != nil {
		return fmt.Errorf("API surface while draining: %w", err)
	}
	if err := expectStatus(base+"/healthz", http.StatusOK); err != nil {
		return fmt.Errorf("liveness while draining: %w", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	if err := eng.Close(); err != nil {
		return fmt.Errorf("close engine: %w", err)
	}
	if cfg.traceDir != "" {
		if err := writeSessionTraces(eng, cfg.traceDir); err != nil {
			return fmt.Errorf("writing traces: %w", err)
		}
		p := filepath.Join(cfg.traceDir, created.ID+".trace.json")
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("trace file missing after shutdown: %w", err)
		}
		fmt.Printf("trace file ok: %s\n", p)
	}

	// Recovery: a fresh engine on the same journal dir must reproduce
	// the session bit-for-bit and keep stepping.
	eng2 := engine.NewWithOptions(engine.Options{Workers: cfg.workers, JournalDir: dir})
	infos, err := eng2.Recover()
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	if len(infos) != 1 {
		return fmt.Errorf("recover after graceful shutdown: %+v (want 1 session)", infos)
	}
	after, err := eng2.Result(created.ID)
	if err != nil {
		return fmt.Errorf("recovered result: %w", err)
	}
	if after.Iterations != before.Iterations ||
		math.Float64bits(after.Total) != math.Float64bits(before.Total) ||
		after.BestAction != before.BestAction {
		return fmt.Errorf("recovered session diverged: %+v vs %+v", after, before)
	}
	if _, _, err := eng2.StepIdem(context.Background(), created.ID, ""); err != nil {
		return fmt.Errorf("step after recovery: %w", err)
	}
	if err := eng2.Close(); err != nil {
		return fmt.Errorf("close recovered engine: %w", err)
	}

	fmt.Printf("selfcheck ok: %d nodes, %d iterations, best n=%d, recovered and resumed from journal\n",
		created.Nodes, before.Iterations, before.BestAction)
	return nil
}

// fetch GETs url and returns the status and full body.
func fetch(url string) (int, []byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, body, nil
}

func expectStatus(url string, want int) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s: status %d, want %d", url, resp.StatusCode, want)
	}
	return nil
}

// selfcheckTrace is the trace context every selfcheck POST carries,
// so the server records the selfcheck's steps; a step without a
// context runs untraced.
const selfcheckTrace = "5e1fc4ec5e1fc4ec-00000000000000a1"

func postJSON(url string, body []byte, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obsv.TraceHeader, selfcheckTrace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postKeyed POSTs an empty JSON body under an Idempotency-Key and
// returns the status, raw body, and whether the server marked the
// response as a journal replay.
func postKeyed(url, key string) (int, []byte, bool, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte("{}")))
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
		return resp.StatusCode, nil, false, err
	}
	return resp.StatusCode, body, resp.Header.Get("Idempotency-Replayed") == "true", nil
}

// readyzState fetches /readyz and returns its JSON status and reason.
func readyzState(base string) (status, reason string, err error) {
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	var m struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return "", "", err
	}
	return m.Status, m.Reason, nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("status %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
