package engine

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/obsv"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
	"phasetune/internal/trace"
)

// Engine is the concurrent tuning service: it owns the evaluation pool,
// the shared cross-session cache, the session registry and (when
// configured) the per-session write-ahead journals that make sessions
// survive a process crash.
type Engine struct {
	pool  *Pool
	cache *Cache
	lp    lpMemo

	journalDir string          // "" disables durability
	tel        *obsv.Telemetry // nil disables metrics and tracing
	closed     atomic.Bool
	sweepIdem  sweepIdemStore // engine-wide idempotency registry for sweeps
	peer       atomic.Pointer[PeerLookup]

	// Replication (see replica.go): the planner names each session's
	// follower, replClient ships journal records to it, and replicas
	// stores the records this node holds for sessions owned elsewhere
	// (nil without a journal directory).
	replPlanner atomic.Pointer[ReplicaPlanner]
	replClient  *http.Client
	replicas    *replicaStore

	// Replication counters (nil-safe; nil without telemetry).
	replShips      *obsv.Counter
	replAccepts    *obsv.Counter
	replDegraded   *obsv.Counter
	replFenced     *obsv.Counter
	replRejects    *obsv.Counter
	replPromotions *obsv.Counter

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int
}

// Options configures an engine.
type Options struct {
	// Workers bounds concurrent evaluations (<= 0 selects GOMAXPROCS).
	Workers int
	// JournalDir, when non-empty, enables session durability: every
	// committed operation is fsync'd to <dir>/<id>.journal before the
	// caller sees its result.
	JournalDir string
	// Telemetry, when non-nil, turns on metrics and span recording
	// across the pool, cache, journals and sessions. Nil is the
	// zero-cost disabled path.
	Telemetry *obsv.Telemetry
}

// New returns an engine admitting workers concurrent evaluations
// (workers <= 0 selects GOMAXPROCS), without durability.
func New(workers int) *Engine {
	return NewWithOptions(Options{Workers: workers})
}

// NewWithOptions returns an engine configured by opts.
func NewWithOptions(opts Options) *Engine {
	e := &Engine{
		pool:       NewPool(opts.Workers),
		cache:      NewCache(),
		journalDir: opts.JournalDir,
		tel:        opts.Telemetry,
		sessions:   map[string]*Session{},
		replClient: &http.Client{Timeout: replicaShipTimeout},
	}
	e.pool.tel = opts.Telemetry
	e.cache.tel = opts.Telemetry
	if opts.JournalDir != "" {
		e.replicas = newReplicaStore(opts.JournalDir)
	}
	if tel := opts.Telemetry; tel != nil {
		e.replShips = tel.Reg.Counter("phasetune_replica_ships_total",
			"journal batches acked by a session's follower", nil)
		e.replAccepts = tel.Reg.Counter("phasetune_replica_accepts_total",
			"replica batches accepted and fsync'd on behalf of remote owners", nil)
		e.replDegraded = tel.Reg.Counter("phasetune_replica_degraded_total",
			"commits acked with replication lagging (follower unreachable)", nil)
		e.replFenced = tel.Reg.Counter("phasetune_replica_fenced_total",
			"local sessions failed closed because a newer generation is live elsewhere", nil)
		e.replRejects = tel.Reg.Counter("phasetune_replica_rejects_total",
			"replica batches refused (stale generation or sequence gap)", nil)
		e.replPromotions = tel.Reg.Counter("phasetune_replica_promotions_total",
			"replica journals promoted into live sessions", nil)
	}
	return e
}

// replicaShipTimeout bounds one replication round-trip. Short: the
// follower's work is an fsync'd append, and a slow follower must not
// stall the owner's commit path indefinitely — past the timeout the
// owner degrades to lagging replication instead.
const replicaShipTimeout = 2 * time.Second

// Telemetry returns the engine's telemetry bundle (nil when disabled).
func (e *Engine) Telemetry() *obsv.Telemetry { return e.tel }

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("engine: closed")

// Close closes every session journal and rejects all further
// operations. It is the second half of graceful shutdown: the HTTP
// server drains in-flight requests first, so every operation has
// committed or aborted in its journal, and each record was fsync'd as
// it was appended, so there is nothing left to flush.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	var errs []error
	for _, s := range sessions {
		s.mu.Lock()
		if s.jl != nil && !s.broken {
			if err := s.jl.close(); err != nil {
				errs = append(errs, err)
			}
			s.jl = nil
		}
		s.mu.Unlock()
	}
	if rs := e.replicas; rs != nil {
		// Replica files are fsync'd per append; closing releases the
		// descriptors, and a later promotion reads from disk.
		rs.mu.Lock()
		ids := make([]string, 0, len(rs.sessions))
		for id := range rs.sessions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			st := rs.sessions[id]
			st.mu.Lock() // wait out an in-flight append before closing
			err := st.f.Close()
			st.mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("engine: close replica %s: %w", id, err))
			}
			delete(rs.sessions, id)
		}
		rs.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Cache exposes the shared evaluation cache (tests, metrics).
func (e *Engine) Cache() *Cache { return e.cache }

// PeerLookup asks shard peers whether one of them already holds a
// completed evaluation for key. It runs inside the cache singleflight on
// a local miss, before the pool slot is requested, so a peer answer
// saves both the slot wait and the simulation. Implementations must be
// safe for concurrent use and should fail fast (short timeouts): a
// (0, false) return simply falls back to local computation.
type PeerLookup func(ctx context.Context, key CacheKey) (float64, bool)

// SetPeerLookup installs (or, with nil, clears) the cross-shard cache
// lookup hook. Safe to call concurrently with serving.
func (e *Engine) SetPeerLookup(fn PeerLookup) { e.peer.Store(&fn) }

// peerFetch consults the installed peer lookup, counting hits/misses.
func (e *Engine) peerFetch(ctx context.Context, key CacheKey) (float64, bool) {
	p := e.peer.Load()
	if p == nil || *p == nil {
		return 0, false
	}
	v, ok := (*p)(ctx, key)
	if e.tel != nil {
		if ok {
			e.tel.PeerHits.Inc()
		} else {
			e.tel.PeerMisses.Inc()
		}
	}
	return v, ok
}

// PeekShared serves a shard peer's cache probe: a completed local value
// for key, counting the share when found. Read-only and safe at any
// lifecycle point, including during recovery replay.
func (e *Engine) PeekShared(key CacheKey) (float64, bool) {
	v, ok := e.cache.Peek(key)
	if ok && e.tel != nil {
		e.tel.PeerShares.Inc()
	}
	return v, ok
}

// Workers returns the evaluation concurrency bound.
func (e *Engine) Workers() int { return e.pool.Workers() }

// resolveScenario picks the scenario a config names.
func resolveScenario(cfg SessionConfig) (platform.Scenario, error) {
	if cfg.Scenario != nil {
		return *cfg.Scenario, nil
	}
	sc, ok := platform.ScenarioByKey(cfg.ScenarioKey)
	if !ok {
		return platform.Scenario{}, fmt.Errorf("engine: unknown scenario %q", cfg.ScenarioKey)
	}
	return sc, nil
}

// checkTiles rejects a tile count the scenario's workload does not
// have: a negative one, or one above the workload's own count (zero
// selects that count). An iteration's task count grows with the cube of
// the tile count, so an unchecked request could stall a worker.
func checkTiles(sc platform.Scenario, tiles int) error {
	if tiles < 0 || tiles > sc.Workload.Tiles {
		return fmt.Errorf("engine: tiles %d outside [0, %d]", tiles, sc.Workload.Tiles)
	}
	return nil
}

// buildSession constructs a session's machinery — scenario, LP bound,
// strategy, driver, evaluator, noise stream — without registering it or
// touching the journal. CreateSession and Recover share it.
func (e *Engine) buildSession(cfg SessionConfig) (*Session, error) {
	sc, err := resolveScenario(cfg)
	if err != nil {
		return nil, err
	}
	opts := harness.SimOptions{Tiles: cfg.Tiles, Exact: cfg.Exact, GenNodes: cfg.GenNodes}
	ev := harness.NewEvaluator(sc, opts)
	lpf, err := e.lp.bound(ev.Fingerprint(), func() (func(int) float64, error) {
		return harness.LPBound(sc, opts)
	})
	if err != nil {
		return nil, err
	}
	name := cfg.Strategy
	if name == "" {
		name = "GP-discontinuous"
	}
	strat, err := harness.NewStrategy(name, core.Context{
		N:          sc.Platform.N(),
		Min:        sc.MinNodes,
		GroupSizes: sc.Platform.GroupSizes(),
		LP:         lpf,
	})
	if err != nil {
		return nil, err
	}
	s := &Session{
		driver: NewDriver(strat),
		ev:     ev,
		seed:   cfg.Seed,
		noise:  stats.NewRNG(cfg.Seed),
	}
	if e.tel != nil {
		s.props = e.tel.Reg.Counter("phasetune_strategy_proposals_total",
			"actions proposed by tuning strategies", obsv.Labels{"strategy": name})
	}
	return s, nil
}

// CreateSession builds a session: scenario, LP bound, strategy, driver,
// evaluator and noise stream. With journaling enabled the session's
// create record is durable before CreateSession returns. The returned
// ID addresses the session in every other call.
func (e *Engine) CreateSession(cfg SessionConfig) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.journalDir != "" && cfg.Scenario != nil {
		return nil, fmt.Errorf("engine: explicit scenarios are not journalable; use a scenario key")
	}
	if cfg.ID != "" {
		if err := ValidateSessionID(cfg.ID); err != nil {
			return nil, err
		}
	}
	sc, err := resolveScenario(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkTiles(sc, cfg.Tiles); err != nil {
		return nil, err
	}
	s, err := e.buildSession(cfg)
	if err != nil {
		return nil, err
	}

	e.mu.Lock()
	if cfg.ID != "" {
		if _, taken := e.sessions[cfg.ID]; taken {
			e.mu.Unlock()
			return nil, fmt.Errorf("engine: session %q already exists", cfg.ID)
		}
		s.id = cfg.ID
	} else {
		// Mint "s<n>", skipping ids a client already claimed.
		for {
			e.nextID++
			s.id = fmt.Sprintf("s%d", e.nextID)
			if _, taken := e.sessions[s.id]; !taken {
				break
			}
		}
	}
	e.sessions[s.id] = s
	e.mu.Unlock()

	if e.journalDir != "" {
		name := cfg.Strategy
		if name == "" {
			name = "GP-discontinuous"
		}
		jl, err := newJournal(e.journalDir, s.id, journalConfig{
			ScenarioKey: cfg.ScenarioKey,
			Strategy:    name,
			Seed:        cfg.Seed,
			Tiles:       cfg.Tiles,
			Exact:       cfg.Exact,
			GenNodes:    cfg.GenNodes,
		}, 1, e.tel)
		if err != nil {
			e.mu.Lock()
			delete(e.sessions, s.id)
			e.mu.Unlock()
			return nil, err
		}
		s.mu.Lock()
		s.jl = jl
		s.gen = 1 // fresh sessions start at generation 1; promotions bump it
		// Ship the create record now, acked-before-visible, like every
		// other fsync'd record: a session whose owner dies before its
		// first op commits must still exist on its follower, or the
		// supervisor would have nothing to promote and the id would be
		// unservable until an operator intervened. A transport failure
		// degrades (single-copy, lagging) exactly as op shipping does.
		replErr := e.replicate(context.Background(), s) //lint:allow ctxflow pre-context API; the ship client carries its own timeout
		s.mu.Unlock()
		if replErr != nil {
			// A refusal on a brand-new id means the id is already live
			// at some generation elsewhere — acking this create would
			// fork it. The journal file stays behind for forensics; a
			// restart that replays it is refused the same way on its
			// first commit.
			e.mu.Lock()
			delete(e.sessions, s.id)
			e.mu.Unlock()
			_ = jl.close()
			return nil, replErr
		}
	}
	e.tel.Emit("session.created", s.id, "",
		map[string]any{"strategy": s.driver.Name(), "seed": s.seed})
	return s, nil
}

// Session returns a session by ID.
func (e *Engine) Session(id string) (*Session, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[id]
	return s, ok
}

// Result returns the session's summary.
func (e *Engine) Result(id string) (SessionResult, error) {
	s, ok := e.Session(id)
	if !ok {
		return SessionResult{}, fmt.Errorf("engine: no session %q", id)
	}
	return s.result(), nil
}

// spanRecorders recycles the span buffers of observed evaluations
// (tens of thousands of spans at paper-like sizes); SimEval copies what
// the session keeps before the buffer goes back.
var spanRecorders = sync.Pool{New: func() any { return trace.NewRecorder() }}

// eval fetches the deterministic makespan for (evaluator scenario,
// epoch, action) through the shared cache; a cold miss runs the DES
// simulation under a pool slot, while waiters and hits pay nothing. ctx
// bounds the wait for a pool slot or an in-flight computation, never a
// running simulation.
func (e *Engine) eval(ctx context.Context, ev *harness.Evaluator, epoch, action int) (float64, bool, error) {
	sc := obsv.FromContext(ctx)
	endLookup := sc.Span("cache", "cache.lookup")
	key := CacheKey{Fingerprint: ev.Fingerprint(), Epoch: epoch, Action: action}
	v, hit, err := e.cache.EvalCtx(ctx, key, func() (float64, error) {
		// A local miss first asks shard peers (when configured): a value
		// another shard already computed skips the pool entirely. Peer
		// values round-trip through JSON bit-exactly (Go emits the
		// shortest representation that parses back to the same float64),
		// so observation logs stay byte-identical either way.
		if pv, ok := e.peerFetch(ctx, key); ok {
			return pv, nil
		}
		endAdmit := sc.Span("pool", "pool.admit")
		var v float64
		var verr error
		derr := e.pool.DoCtx(ctx, func() {
			endAdmit(nil)
			endEval := sc.Span("des", "des.eval")
			if sc.Tracing() {
				rec := spanRecorders.Get().(*trace.Recorder)
				rec.Reset()
				v, verr = ev.EvaluateObserved(action, rec)
				endEval(map[string]any{"action": action, "epoch": epoch, "makespan": v})
				sc.SimEval(fmt.Sprintf("eval n=%d epoch=%d", action, epoch), rec.Spans())
				spanRecorders.Put(rec)
			} else {
				v, verr = ev.Evaluate(action)
				endEval(nil)
			}
		})
		if derr != nil {
			// DoCtx gave up before fn ran; close the admission span here.
			if sc != nil {
				endAdmit(map[string]any{"error": derr.Error()})
			}
			return 0, derr
		}
		return v, verr
	})
	if sc != nil {
		endLookup(map[string]any{"action": action, "epoch": epoch, "hit": hit})
	} else {
		endLookup(nil)
	}
	return v, hit, err
}

// checkout fetches an operable session: it must exist, the engine must
// be open, and the session must not have failed closed on a journal
// error.
func (e *Engine) checkout(id string) (*Session, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	s, ok := e.Session(id)
	if !ok {
		return nil, fmt.Errorf("engine: no session %q", id)
	}
	return s, nil
}

// commitOp journals one committed (or aborted) operation under the
// session lock and ships it to the session's follower before the
// caller sees the result (acked-before-visible; see replica.go). On
// local append failure the session fails closed: its in-memory state
// is ahead of disk and the journal is the source of truth, so
// continuing to serve would let the divergence compound. ctx bounds
// the replication round-trip, never the local fsync.
func (e *Engine) commitOp(ctx context.Context, s *Session, rec journalRecord) error {
	if s.jl == nil {
		return nil
	}
	if err := s.jl.append(rec); err != nil {
		s.broken = true
		return fmt.Errorf("engine: session %s fails closed (journal unwritable, restart with recovery): %w", s.id, err)
	}
	return e.replicate(ctx, s)
}

// AdvanceEpochIdem bumps the session's platform epoch and evicts the
// fingerprint's now-stale cache entries. This is the hook the fault
// layer drives when the platform underneath a served session changes:
// values from different epochs never mix (the key separates them) and
// the old epoch's memory is reclaimed. The transition is journaled so a
// recovered session resumes in the correct epoch. A key that already
// committed an epoch advance replays the resulting epoch instead of
// advancing again — the difference between a retried request costing
// nothing and a platform silently skipping an epoch. ctx bounds the
// replication ship of the journaled transition.
func (e *Engine) AdvanceEpochIdem(ctx context.Context, id, key string) (int, bool, error) {
	s, err := e.checkout(id)
	if err != nil {
		return 0, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, found, err := s.lookupIdem(key, "epoch", 0); err != nil {
		return 0, false, err
	} else if found {
		return ent.epoch, true, nil
	}
	if s.broken {
		return 0, false, fmt.Errorf("engine: session %q failed closed on a journal error", id)
	}
	s.epoch++
	e.cache.DropEpochsBelow(s.ev.Fingerprint(), s.epoch)
	if err := e.commitOp(ctx, s, journalRecord{T: "epoch", Epoch: s.epoch, Key: key}); err != nil {
		return 0, false, err
	}
	s.registerIdem(key, idemEntry{op: "epoch", epoch: s.epoch})
	return s.epoch, false, nil
}

// errCollector mirrors the harness's parallel first-error funnel.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// SweepOptions configures a parallel evaluation sweep.
type SweepOptions struct {
	// NoiseSD > 0 additionally draws Reps noisy observations per action
	// (a parallel stand-in for Curve.Pool); the noise stream of action a
	// is derived with DeriveSeed(Seed, a), so the sweep is bit-for-bit
	// reproducible at any worker count.
	NoiseSD float64
	Reps    int
	Seed    int64
	// Epoch keys the cache entries (default 0).
	Epoch int
}

// SweepPoint is one action's sweep outcome.
type SweepPoint struct {
	Action   int       `json:"action"`
	Makespan float64   `json:"makespan"`
	CacheHit bool      `json:"cache_hit"`
	Noisy    []float64 `json:"noisy,omitempty"`
}

// SweepResult is a full f(n) evaluation sweep.
type SweepResult struct {
	Scenario     string       `json:"scenario"`
	Fingerprint  string       `json:"fingerprint"`
	Points       []SweepPoint `json:"points"`
	BestAction   int          `json:"best_action"`
	BestMakespan float64      `json:"best_makespan"`
}

// SweepCtx evaluates every feasible action of the scenario in parallel
// through the shared cache and returns the per-action makespans and the
// argmin. Deterministic: the same inputs give the same result at any
// worker count, and the best action matches a sequential
// SimulateIteration loop exactly. ctx bounds slot and singleflight
// waits, not running simulations.
func (e *Engine) SweepCtx(ctx context.Context, sc platform.Scenario, opts harness.SimOptions, so SweepOptions) (*SweepResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := checkTiles(sc, opts.Tiles); err != nil {
		return nil, err
	}
	ev := harness.NewEvaluator(sc, opts)
	actions := ev.Actions()
	res := &SweepResult{
		Scenario:    sc.Name,
		Fingerprint: ev.Fingerprint(),
		Points:      make([]SweepPoint, len(actions)),
	}
	var errs errCollector
	e.pool.ForEach(len(actions), func(i int) {
		a := actions[i]
		mk, hit, err := e.eval(ctx, ev, so.Epoch, a)
		if err != nil {
			errs.record(err)
			return
		}
		p := SweepPoint{Action: a, Makespan: mk, CacheHit: hit}
		if so.NoiseSD > 0 && so.Reps > 0 {
			rng := stats.NewRNG(DeriveSeed(so.Seed, uint64(a)))
			p.Noisy = make([]float64, so.Reps)
			for r := range p.Noisy {
				d := mk + rng.Normal(0, so.NoiseSD)
				if d < 0.01 {
					d = 0.01
				}
				p.Noisy[r] = d
			}
		}
		res.Points[i] = p
	})
	if err := errs.first(); err != nil {
		return nil, err
	}
	res.BestAction = res.Points[0].Action
	res.BestMakespan = res.Points[0].Makespan
	for _, p := range res.Points[1:] {
		if p.Makespan < res.BestMakespan {
			res.BestAction, res.BestMakespan = p.Action, p.Makespan
		}
	}
	return res, nil
}

// Metrics is the engine-wide observability snapshot served at /metrics.
type Metrics struct {
	Workers         int             `json:"workers"`
	InFlightEvals   int64           `json:"in_flight_evals"`
	WaitingEvals    int64           `json:"waiting_evals"`
	JournalDir      string          `json:"journal_dir,omitempty"`
	Cache           CacheStats      `json:"cache"`
	Sessions        []SessionResult `json:"sessions"`
	SessionsTotal   int             `json:"sessions_total"`
	IterationsTotal int             `json:"iterations_total"`
}

// Metrics snapshots the engine: pool occupancy, cache accounting and
// every session's summary (including its exact cumulative regret).
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	m := Metrics{
		Workers:       e.pool.Workers(),
		InFlightEvals: e.pool.InFlight(),
		WaitingEvals:  e.pool.Waiting(),
		JournalDir:    e.journalDir,
		Cache:         e.cache.Stats(),
		SessionsTotal: len(sessions),
	}
	for _, s := range sessions {
		r := s.result()
		// Trim the bulky trajectories out of the metrics view; the
		// per-session result endpoint serves them.
		r.Actions, r.Durations = nil, nil
		m.Sessions = append(m.Sessions, r)
		m.IterationsTotal += r.Iterations
	}
	return m
}
