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

// The engine's error kinds. Errors wrap them, and the HTTP layer picks
// a status with errors.Is (see statusFor).
var (
	ErrClosed       = errors.New("engine: closed")                // every operation after Close
	ErrNoSession    = errors.New("engine: no session")            // no live session holds the id
	ErrInvalid      = errors.New("engine: invalid request")       // a bad id, tile count, batch width or rep count
	ErrUnknownName  = errors.New("engine: unknown name")          // an unknown scenario or strategy
	ErrFailedClosed = errors.New("engine: session failed closed") // by a journal error or a fence
)

// Close rejects all further operations. It is the second half of
// graceful shutdown: the HTTP server drains in-flight requests first,
// so every operation has committed or aborted in its journal. Each
// append closed its file after its fsync, so nothing is held open and
// nothing is left to flush.
func (e *Engine) Close() error {
	e.closed.Store(true)
	return nil
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
		return platform.Scenario{}, fmt.Errorf("%w: scenario %q", ErrUnknownName, cfg.ScenarioKey)
	}
	return sc, nil
}

// checkTiles rejects a tile count the scenario's workload does not
// have: a negative one, or one above the workload's own count (zero
// selects that count). An iteration's task count grows with the cube of
// the tile count, so an unchecked request could stall a worker.
func checkTiles(sc platform.Scenario, tiles int) error {
	if tiles < 0 || tiles > sc.Workload.Tiles {
		return fmt.Errorf("%w: tiles %d outside [0, %d]", ErrInvalid, tiles, sc.Workload.Tiles)
	}
	return nil
}

// freshModel is the strategy model every new session gets and names in
// its create record. Model 3 solves the LP bound in closed form and
// fits GP-discontinuous on per-action means through the exponential
// kernel's tridiagonal precision. Model 2 fits the same means through a
// dense Cholesky factor; journals written before model 3 replay in it.
// Model 1, the simplex bound and the fit on every history entry, is
// what a create record naming no model means: journals written before
// model 2 replay in it. The models agree in exact arithmetic but not
// bit for bit, and a restored session must re-propose its journaled
// actions, so the model is journaled and never changes over a session's
// life. A binary that knows fewer models refuses a journal naming a
// later one (see buildSession) instead of replaying it in another.
const freshModel = 3

// buildSession constructs a session's machinery — scenario, LP bound,
// strategy, driver, evaluator, noise stream — without registering it or
// touching the journal. CreateSession and restoreSession share it;
// cfg.Strategy is already resolved (CreateSession fills the default,
// and a journal records the resolved name), and model is the create
// record's: freshModel for a new session, the journal's for a restored
// one (0 when it names none). The session records that resolved config,
// so a restored session answers a repeated create exactly as a fresh
// one does, and a resync ships its create record unchanged.
func (e *Engine) buildSession(cfg SessionConfig, model int) (*Session, error) {
	sc, err := resolveScenario(cfg)
	if err != nil {
		return nil, err
	}
	opts := harness.SimOptions{Tiles: cfg.Tiles, Exact: cfg.Exact, GenNodes: cfg.GenNodes}
	ev := harness.NewEvaluator(sc, opts)
	var lpf func(int) float64
	switch model {
	case 0, 1:
		// The simplex costs up to a second per fingerprint, which a
		// restart over many model-1 sessions would pay per session.
		lpf, err = e.lp.bound(ev.Fingerprint(), func() (func(int) float64, error) {
			return harness.SimplexLPBound(sc, opts)
		})
	case 2, 3:
		lpf, err = harness.LPBound(sc, opts)
	default:
		err = fmt.Errorf("engine: strategy model %d is unknown to this binary", model)
	}
	if err != nil {
		return nil, err
	}
	sctx := core.Context{
		N:          sc.Platform.N(),
		Min:        sc.MinNodes,
		GroupSizes: sc.Platform.GroupSizes(),
		LP:         lpf,
	}
	var strat core.Strategy
	switch {
	case cfg.Strategy == "GP-discontinuous" && model < 2:
		strat = core.NewGPDiscontinuousModel1(sctx)
	case cfg.Strategy == "GP-discontinuous" && model == 2:
		strat = core.NewGPDiscontinuousModel2(sctx)
	default:
		if strat, err = harness.NewStrategy(cfg.Strategy, sctx); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrUnknownName, err)
		}
	}
	s := &Session{
		driver: NewDriver(strat),
		ev:     ev,
		cfg: journalConfig{
			ScenarioKey: cfg.ScenarioKey,
			Strategy:    cfg.Strategy,
			Seed:        cfg.Seed,
			Tiles:       cfg.Tiles,
			Exact:       cfg.Exact,
			GenNodes:    cfg.GenNodes,
			Model:       model,
		},
		noise: stats.NewRNG(cfg.Seed),
	}
	if e.tel != nil {
		s.props = e.tel.Reg.Counter("phasetune_strategy_proposals_total",
			"actions proposed by tuning strategies", obsv.Labels{"strategy": cfg.Strategy})
	}
	return s, nil
}

// CreateSession builds a session: scenario, LP bound, strategy, driver,
// evaluator and noise stream. With journaling enabled the session's
// create record is durable before CreateSession returns. The returned
// ID addresses the session in every other call. Creating a live id
// again returns the live session (see SessionConfig.ID).
func (e *Engine) CreateSession(cfg SessionConfig) (*Session, error) {
	s, _, err := e.createSession(context.Background(), cfg) //lint:allow ctxflow pre-context API; the ship client carries its own timeout
	return s, err
}

// createSession is CreateSession under ctx, which bounds the create
// record's replication round-trip, and reports whether it replayed a
// live session. A create is keyed by its id as other mutations are by
// their idempotency keys: a live id with the same resolved config,
// whatever its strategy model, replays, writing, shipping and emitting
// nothing, and another config is an ErrIdemConflict. A replay waits on the session's mutex, which
// its create holds until the record is on both disks or rolled back.
// A replica of the id held here is an owner's acked create retried past
// that dead owner: it is promoted, then replayed.
func (e *Engine) createSession(ctx context.Context, cfg SessionConfig) (*Session, bool, error) {
	if e.closed.Load() {
		return nil, false, ErrClosed
	}
	if e.journalDir != "" && cfg.Scenario != nil {
		return nil, false, fmt.Errorf("%w: explicit scenarios are not journalable; use a scenario key", ErrInvalid)
	}
	if cfg.ID != "" {
		if err := ValidateSessionID(cfg.ID); err != nil {
			return nil, false, err
		}
	}
	if cfg.Strategy == "" {
		cfg.Strategy = "GP-discontinuous"
	}
	sc, err := resolveScenario(cfg)
	if err != nil {
		return nil, false, err
	}
	if err := checkTiles(sc, cfg.Tiles); err != nil {
		return nil, false, err
	}
	s, err := e.buildSession(cfg, freshModel)
	if err != nil {
		return nil, false, err
	}
	if cfg.ID != "" && e.replicas != nil {
		if _, err := e.PromoteReplica(ctx, cfg.ID, 0); err != nil && !errors.Is(err, ErrNoReplica) {
			return nil, false, err
		}
	}
	for {
		live := e.register(s, cfg.ID)
		if live == nil {
			break
		}
		// Wait out live's create; a rolled-back one left the registry.
		live.mu.Lock()
		cur, _ := e.Session(cfg.ID)
		live.mu.Unlock()
		if cur != live {
			continue
		}
		if !live.cfg.sameRequest(s.cfg) {
			return nil, false, fmt.Errorf("%w: session %q exists with another config", ErrIdemConflict, cfg.ID)
		}
		return live, true, nil
	}
	defer s.mu.Unlock()

	if e.journalDir != "" {
		jl, err := newJournal(e.journalDir, s.id, s.cfg, e.tel)
		if err == nil {
			s.jl = jl
			// Ship the create record now, acked-before-visible, like every
			// other fsync'd record: a session whose owner dies before its
			// first op commits must still exist on its follower, or the
			// supervisor would have nothing to promote and the id would be
			// unservable until an operator intervened. A transport failure
			// degrades (single-copy, lagging) exactly as op shipping does.
			err = e.replicate(ctx, s, []journalRecord{createRecord(s.cfg, jl.gen)})
		}
		if err != nil {
			// Roll back. A refusal on a brand-new id means the id is
			// already live at some generation elsewhere — acking this
			// create would fork it. The journal file stays behind for
			// forensics; a restart that replays it is refused the same
			// way on its first commit. An operation that found s
			// meanwhile sees it failed closed.
			s.broken = true
			e.mu.Lock()
			delete(e.sessions, s.id)
			e.mu.Unlock()
			return nil, false, err
		}
	}
	e.tel.Emit("session.created", s.id, "",
		map[string]any{"strategy": s.driver.Name(), "seed": s.cfg.Seed})
	return s, false, nil
}

// register enters s into the registry under id, or under a fresh
// engine-minted "s<n>" when id is empty, and returns with s.mu held:
// whoever finds s there waits on it until its create is durable or
// rolled back. When a live session holds id already, register leaves s
// out and returns that session instead.
func (e *Engine) register(s *Session, id string) *Session {
	s.mu.Lock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if id == "" {
		// Mint "s<n>", skipping ids a client already claimed.
		for {
			e.nextID++
			id = fmt.Sprintf("s%d", e.nextID)
			if _, taken := e.sessions[id]; !taken {
				break
			}
		}
	} else if live, taken := e.sessions[id]; taken {
		s.mu.Unlock()
		return live
	}
	s.id = id
	e.sessions[id] = s
	return nil
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
		return SessionResult{}, fmt.Errorf("%w %q", ErrNoSession, id)
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
		return nil, fmt.Errorf("%w %q", ErrNoSession, id)
	}
	return s, nil
}

// commitOp journals one commit group — recs, the records of one
// committed (or aborted) operation or of one group of a stream — under
// the session lock, in one append, and ships them to the session's
// follower in one batch before the caller sees the result
// (acked-before-visible; see replica.go). On local append failure the
// session fails closed: its in-memory state is ahead of disk and the
// journal is the source of truth, so continuing to serve would let the
// divergence compound. ctx carries the request's trace span; it bounds
// neither the local fsync nor the replication round-trip, which
// replicaShipTimeout bounds.
func (e *Engine) commitOp(ctx context.Context, s *Session, recs ...journalRecord) error {
	if s.jl == nil {
		return nil
	}
	if err := s.jl.append(recs); err != nil {
		s.broken = true
		return fmt.Errorf("engine: session %s fails closed (journal unwritable, restart with recovery): %w", s.id, err)
	}
	return e.replicate(ctx, s, recs)
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
		return 0, false, fmt.Errorf("%w: %q", ErrFailedClosed, id)
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
	// reproducible at any worker count. Reps may not exceed
	// maxSweepReps.
	NoiseSD float64
	Reps    int
	Seed    int64
	// Epoch keys the cache entries (default 0).
	Epoch int
}

// maxSweepReps bounds SweepOptions.Reps. The result holds Reps floats
// per action, and a keyed sweep keeps its result in the idempotency
// store, so an unbounded count would let one request exhaust a
// worker's memory. The paper's methodology repeats each measurement
// 30 times.
const maxSweepReps = 1000

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
	if so.Reps > maxSweepReps {
		return nil, fmt.Errorf("%w: reps %d above %d", ErrInvalid, so.Reps, maxSweepReps)
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
