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
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
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
	flag.Parse()

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
	evlog, err := events.NewFile(cfg.eventsFile, wallclock.Nanos)
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
func wirePeers(cfg config, eng *engine.Engine, srv *engine.Server) {
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
