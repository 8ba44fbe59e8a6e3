package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasetune/internal/obsv"
	"phasetune/internal/obsv/events"
	"phasetune/internal/trace"
)

// Shard names one worker process. Name is the routing identity (hashed
// onto the ring, stable for the fleet's lifetime); Addr is the current
// base URL and may be repointed at a replacement process without moving
// any session.
type Shard struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// Options configures a Router.
type Options struct {
	// Shards is the fleet. Names must be unique; the set is fixed for
	// the router's lifetime (repoint addresses via POST /admin/shards).
	Shards []Shard
	// Replicas is the ring's virtual-node count per shard (<= 0 selects
	// DefaultReplicas).
	Replicas int
	// Seed drives Retry-After and health-loop jitter, and seeds the
	// stream of minted session ids together with one reading of Now.
	Seed int64
	// HealthInterval is the background health-check cadence (<= 0
	// selects 500ms; set very large to effectively disable the loop —
	// CheckNow still probes on demand).
	HealthInterval time.Duration
	// HealthTimeout bounds each health probe and each /metrics scrape
	// (<= 0 selects 1s).
	HealthTimeout time.Duration
	// Supervise turns the health loop into a failover supervisor: after
	// each probe pass, sessions whose serving shard is down are
	// promoted onto the first live member of their ring chain (the
	// replication follower) at a bumped generation, with no operator
	// involvement. POST /admin/shards stays available as the manual
	// override either way. Tests drive CheckNow + SuperviseNow directly.
	Supervise bool
	// Client performs the proxied requests. Nil selects a client with
	// no overall timeout: proxied evaluations and ndjson streams run as
	// long as the worker allows.
	Client *http.Client
	// Trace, when set, records the router's spans of every proxied
	// request that arrives with a valid X-Phasetune-Trace context, and
	// each such proxy hop ships a child span id so the shard's root
	// span links back to the router's. A request without a valid
	// context runs untraced on every hop: the router mints no trace
	// for it. The supervisor's failover batches are trace roots of
	// their own. GET /v1/fleet/trace stitches the fleet's slices into
	// one document. Nil disables router tracing; inbound headers then
	// pass through to the shards untouched.
	Trace *obsv.TraceRecorder
	// Events, when set, records the router's structured events — shard
	// down/up transitions and supervisor promotions — into the
	// fleet-merged GET /v1/events view. Nil records nothing (the view
	// still merges the shards' logs).
	Events *events.Log
	// Now is the nanosecond clock behind takeover timing. Its reading
	// when the router is built also enters every minted session id, so
	// a restarted router, or a second one over the same fleet, mints
	// ids the first never gave out. Nil selects the wall clock; tests
	// inject a fake.
	Now func() int64
}

// shardState is one shard's mutable runtime state. The ring owns the
// name; everything here is swappable while requests are in flight.
type shardState struct {
	name   string
	addr   atomic.Value // string
	up     atomic.Bool
	reason atomic.Value // string; why the shard is down
	// downSince is the clock reading when the shard was last observed
	// going down (0 while up). Promotions measure takeover time from it.
	downSince atomic.Int64
}

func (st *shardState) addrStr() string   { return st.addr.Load().(string) }
func (st *shardState) reasonStr() string { return st.reason.Load().(string) }

func (st *shardState) view() Shard { return Shard{Name: st.name, Addr: st.addrStr()} }

// Router fronts a fleet of tuning workers with one address. Session-
// addressed requests consistent-hash the session id onto a shard;
// session creation routes by the id the client sent (or one the router
// mints for a body without one) so the create lands on the shard that
// will own every later request.
// Sweeps hash their Idempotency-Key so a retry replays on the shard
// holding the committed result. /metrics aggregates the fleet with a
// shard label plus fleet-summed phasetune_fleet_* families; /readyz is
// ready only when every shard is. GET /v1/fleet/trace stitches one
// fleet trace from every process's slice, and GET /v1/events merges
// the fleet's structured event logs into one causal order.
//
// The ring is a pure function of the shard names, so two routers over
// the same fleet place every unregistered session id alike. The session
// registry is different: it is the only record of where a promotion, or
// a create that skipped a dead owner, put a session, it lives in this
// router's memory, and nothing rebuilds it when a router starts. A
// restarted or second router sends such a session to its ring owner: it
// answers 502/503 while that owner stays down, and once the owner is back
// under -recover it serves the owner's stale copy until its first
// commit is fenced. Addresses repointed through POST /admin/shards are
// likewise held only here.
type Router struct {
	mux    *http.ServeMux
	ring   *Ring
	shards map[string]*shardState
	client *http.Client
	probe  *http.Client // health checks + metrics scrapes, short timeout

	seed     uint64
	idBase   uint64 // seed and construction clock reading, mixed
	idSeq    atomic.Uint64
	retrySeq atomic.Uint64
	rrSeq    atomic.Uint64 // round-robin for unkeyed sweeps

	reg        *obsv.Registry
	proxied    func(shard string) *obsv.Counter
	errors     *obsv.Counter
	failover   *obsv.Counter
	promotions *obsv.Counter
	takeover   *obsv.Histogram

	tracer *obsv.TraceRecorder // nil: router tracing disabled
	events *events.Log         // nil: router events disabled
	now    func() int64

	// sess is the supervisor's session registry: which shard serves
	// each router-created session right now, and the last generation
	// the supervisor knows. Populated when a create commits (201),
	// rewritten by promotions. Sessions created behind the router's
	// back route by the plain ring and are not supervised.
	sessMu    sync.Mutex
	sess      map[string]*sessionEntry
	supervise bool

	interval time.Duration
	// baseCtx bounds the router's own background work (the health loop
	// and its on-ticker probes); cancel is Close. Request-triggered
	// probes use the request's context instead, so a disconnected admin
	// or scrape call abandons its probe immediately.
	baseCtx context.Context
	cancel  context.CancelFunc
}

// sessionEntry is one supervised session's routing state.
type sessionEntry struct {
	owner string // shard name currently serving the session
	gen   uint64 // highest generation the supervisor has seen
}

// New builds a Router over the fleet and starts its health loop. Close
// stops the loop. All shards start as up — the first health pass (or
// the first failed proxy) corrects that within HealthInterval.
func New(opts Options) (*Router, error) {
	if len(opts.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	names := make([]string, 0, len(opts.Shards))
	for _, s := range opts.Shards {
		if s.Addr == "" {
			return nil, fmt.Errorf("shard: shard %q has no address", s.Name)
		}
		names = append(names, s.Name)
	}
	ring, err := NewRing(names, opts.Replicas)
	if err != nil {
		return nil, err
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 500 * time.Millisecond
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = time.Second
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	now := opts.Now
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() } //lint:allow determinism wall-clock default for takeover timing; deterministic tests inject Now
	}

	baseCtx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		mux:       http.NewServeMux(),
		ring:      ring,
		shards:    make(map[string]*shardState, len(opts.Shards)),
		client:    client,
		probe:     &http.Client{Timeout: opts.HealthTimeout},
		seed:      uint64(opts.Seed),
		idBase:    uint64(opts.Seed) ^ uint64(now())*0x9e3779b97f4a7c15,
		reg:       obsv.NewRegistry(),
		sess:      map[string]*sessionEntry{},
		supervise: opts.Supervise,
		interval:  opts.HealthInterval,
		baseCtx:   baseCtx,
		cancel:    cancel,
		tracer:    opts.Trace,
		events:    opts.Events,
		now:       now,
	}
	for _, s := range opts.Shards {
		st := &shardState{name: s.Name}
		st.addr.Store(s.Addr)
		st.reason.Store("")
		st.up.Store(true)
		rt.shards[s.Name] = st
	}
	rt.proxied = func(shard string) *obsv.Counter {
		return rt.reg.Counter("phasetune_router_proxied_total",
			"requests proxied to each shard", obsv.Labels{"shard": shard})
	}
	rt.errors = rt.reg.Counter("phasetune_router_errors_total",
		"proxy attempts that failed to reach their shard", nil)
	rt.failover = rt.reg.Counter("phasetune_router_repoints_total",
		"shard address repoints via /admin/shards", nil)
	rt.promotions = rt.reg.Counter("phasetune_router_promotions_total",
		"sessions auto-promoted onto their replication follower", nil)
	rt.takeover = rt.reg.Histogram("phasetune_takeover_seconds",
		"time from a shard being observed down to each of its sessions being promoted onto its follower",
		obsv.DurationBuckets, nil)
	rt.routes()

	go func() {
		// Seeded jitter on the probe cadence: two routers over the same
		// fleet started from the same config would otherwise tick in
		// lockstep and double-probe every worker at the same instant.
		// Each wait is drawn from [3/4, 5/4] of the interval by a
		// SplitMix64 stream over (seed, tick) — deterministic per
		// router, decorrelated across seeds. Tests bypass the loop and
		// drive CheckNow/SuperviseNow directly.
		var tick uint64
		timer := time.NewTimer(rt.jitteredInterval(tick)) //lint:allow determinism health checks are wall-clock by nature; tests drive CheckNow directly
		defer timer.Stop()
		for {
			select {
			case <-rt.baseCtx.Done():
				return
			case <-timer.C:
				rt.CheckNow()
				if rt.supervise {
					rt.SuperviseNow(rt.baseCtx)
				}
				tick++
				timer.Reset(rt.jitteredInterval(tick))
			}
		}
	}()
	return rt, nil
}

// jitteredInterval returns the wait before probe pass n, spread over
// [3/4, 5/4] of the configured interval by the router's seed.
func (rt *Router) jitteredInterval(n uint64) time.Duration {
	span := uint64(rt.interval) / 2
	if span == 0 {
		return rt.interval
	}
	off := splitmix64(rt.seed^(n+0x5eed)) % span
	return rt.interval*3/4 + time.Duration(off)
}

// Close stops the health loop and cancels any in-flight background
// probes. Idempotent.
func (rt *Router) Close() {
	rt.cancel()
}

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// sortedStates returns the shard states in name order — every
// fleet-wide iteration goes through here so output and probe order are
// deterministic.
func (rt *Router) sortedStates() []*shardState {
	out := make([]*shardState, 0, len(rt.shards))
	for _, name := range rt.ring.Names() {
		out = append(out, rt.shards[name])
	}
	return out
}

// CheckNow probes every shard's /readyz once, concurrently, and
// updates the up/down state. Safe to call from anywhere; the health
// loop calls it on its ticker. Probes run under the router's base
// context, so Close abandons them.
func (rt *Router) CheckNow() {
	states := rt.sortedStates()
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			rt.checkOne(rt.baseCtx, st)
		}(st)
	}
	wg.Wait()
}

func (rt *Router) checkOne(ctx context.Context, st *shardState) {
	resp, err := rt.get(ctx, st.addrStr()+"/readyz")
	if err != nil {
		rt.markDown(st, "readyz: "+err.Error())
		return
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		rt.markDown(st, fmt.Sprintf("readyz: status %d", resp.StatusCode))
		return
	}
	rt.markUp(st)
}

// markDown records a shard going down. The event and the takeover
// clock fire on the up→down transition only — repeated failed probes
// keep the original downSince, so takeover time measures from the
// first observation of the outage.
func (rt *Router) markDown(st *shardState, reason string) {
	was := st.up.Swap(false)
	st.reason.Store(reason)
	if was {
		st.downSince.Store(rt.now())
		rt.events.Emit("shard.down", "", "",
			map[string]any{"shard": st.name, "reason": reason})
	}
}

// markUp records a shard (back) up; the event fires on the transition.
func (rt *Router) markUp(st *shardState) {
	was := st.up.Swap(true)
	st.reason.Store("")
	st.downSince.Store(0)
	if !was {
		rt.events.Emit("shard.up", "", "", map[string]any{"shard": st.name})
	}
}

// get issues one context-bound probe through the short-timeout client.
func (rt *Router) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return rt.probe.Do(req)
}

// shardFor maps a routing key onto its shard's state.
func (rt *Router) shardFor(key string) *shardState {
	return rt.shards[rt.ring.Lookup(key)]
}

// registeredShard returns the shard the session registry names for
// id, or nil when the id is not registered.
func (rt *Router) registeredShard(id string) *shardState {
	rt.sessMu.Lock()
	defer rt.sessMu.Unlock()
	if ent, ok := rt.sess[id]; ok {
		return rt.shards[ent.owner]
	}
	return nil
}

// sessionShard maps a session id onto the shard serving it: the
// supervisor's registry wins (a promoted session is served by its
// follower, not its ring owner), the plain ring otherwise.
func (rt *Router) sessionShard(id string) *shardState {
	if st := rt.registeredShard(id); st != nil {
		return st
	}
	return rt.shardFor(id)
}

// createShard picks where a create lands. A registered id is a retry
// of a create that committed: it goes where the session is served now,
// like every other request for the id, and replays there. A new
// session is born on its ring owner, so placement is predictable from
// the id alone — except that a supervisor may skip a dead owner and
// place the session on the next live member of its chain instead: the
// registry keeps later requests sticky to wherever the create actually
// landed, so a fleet running one member short keeps accepting every
// session id.
func (rt *Router) createShard(id string) *shardState {
	if st := rt.registeredShard(id); st != nil {
		return st
	}
	if rt.supervise {
		for _, name := range rt.ring.LookupN(id, len(rt.ring.Names())) {
			if st := rt.shards[name]; st != nil && st.up.Load() {
				return st
			}
		}
	}
	return rt.shardFor(id)
}

// registerSession records where a router-created session was born. A
// replayed create of a registered id leaves its entry as it is: the
// create went to the registered shard, and a promotion that raced it
// has repointed the entry at a higher generation.
func (rt *Router) registerSession(id, shard string) {
	rt.sessMu.Lock()
	if _, ok := rt.sess[id]; !ok {
		rt.sess[id] = &sessionEntry{owner: shard, gen: 1}
	}
	rt.sessMu.Unlock()
}

// SuperviseNow runs one supervision pass: every registered session
// whose serving shard is down right now is promoted onto the first up
// member of its ring chain. One attempt per session per pass — a
// failed promotion (follower also down, replica missing) retries on
// the next pass rather than looping. Promotions run concurrently
// (bounded): each one replays the session's replicated journal on its
// follower, so a dead shard with many sessions would otherwise be a
// serial storm lasting longer than clients' retry windows — the
// followers are spread across the fleet and can replay in parallel.
// Safe to call from anywhere; the background loop calls it after each
// probe pass when Options.Supervise is set, and tests call it
// directly after CheckNow.
func (rt *Router) SuperviseNow(ctx context.Context) {
	type job struct {
		id    string
		owner string
		gen   uint64
	}
	rt.sessMu.Lock()
	jobs := make([]job, 0, len(rt.sess))
	for id, ent := range rt.sess {
		if st := rt.shards[ent.owner]; st != nil && !st.up.Load() {
			jobs = append(jobs, job{id: id, owner: ent.owner, gen: ent.gen})
		}
	}
	rt.sessMu.Unlock()
	if len(jobs) == 0 {
		return
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })
	// The batch is a trace root of its own — no request caused it — so
	// every promote hop and each follower's replay shows up as one
	// fleet trace per supervision pass.
	sc, endBatch := rt.tracer.StartRequest("supervisor", "supervise")
	defer endBatch()
	rt.events.Emit("supervisor.batch", "", sc.TraceContext().TraceID,
		map[string]any{"sessions": len(jobs)})
	workers := 2 * len(rt.ring.Names())
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for _, j := range jobs {
			rt.promoteSession(ctx, sc, j.id, j.owner, j.gen)
		}
		return
	}
	queue := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				rt.promoteSession(ctx, sc, j.id, j.owner, j.gen)
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()
}

// promoteSession asks the session's first live chain member to promote
// its replica at a generation above everything the supervisor has
// seen. On success the registry repoints the session — in-flight
// client retries land on the promoted shard on their next attempt —
// and the deposed owner's generation is fenced out by the promoted
// engine itself (see the engine's replica store).
func (rt *Router) promoteSession(ctx context.Context, sc *obsv.SpanCtx, id, owner string, gen uint64) {
	promoted := false
	tc, endHop := sc.SpanLink("supervisor", "promote")
	if sc != nil {
		defer func() { endHop(map[string]any{"session": id, "from": owner, "ok": promoted}) }()
	} else {
		defer endHop(nil)
	}
	chain := rt.ring.LookupN(id, len(rt.ring.Names()))
	var target *shardState
	for _, name := range chain {
		if name == owner {
			continue
		}
		if st := rt.shards[name]; st != nil && st.up.Load() {
			target = st
			break
		}
	}
	if target == nil {
		return // nowhere to promote; the next pass retries
	}
	body, err := json.Marshal(map[string]uint64{"gen": gen + 1})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target.addrStr()+"/v1/replica/"+id+"/promote", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if h := tc.Header(); h != "" {
		req.Header.Set(obsv.TraceHeader, h)
	}
	resp, err := rt.probe.Do(req)
	if err != nil {
		rt.errors.Inc()
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// 404: the follower holds no replica (yet); other statuses mean
		// it is not ready to take over. Either way the next pass retries.
		_, _ = io.Copy(io.Discard, resp.Body)
		return
	}
	var pr struct {
		Gen uint64 `json:"gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return
	}
	rt.sessMu.Lock()
	if ent, ok := rt.sess[id]; ok {
		ent.owner = target.name
		if pr.Gen > ent.gen {
			ent.gen = pr.Gen
		}
	}
	rt.sessMu.Unlock()
	rt.promotions.Inc()
	promoted = true
	if since := rt.shards[owner].downSince.Load(); since > 0 {
		rt.takeover.Observe(float64(rt.now()-since) / 1e9)
	}
	rt.events.Emit("supervisor.promoted", id, tc.TraceID,
		map[string]any{"from": owner, "to": target.name, "gen": pr.Gen})
}

// Jittered Retry-After, same policy and bounds as the worker: spread
// rejected clients over [1, 5] seconds so they do not return in
// lockstep.
const (
	retryAfterMin = 1
	retryAfterMax = 5
)

func (rt *Router) setRetryAfter(w http.ResponseWriter) {
	n := splitmix64(rt.seed + rt.retrySeq.Add(1))
	w.Header().Set("Retry-After",
		strconv.Itoa(retryAfterMin+int(n%uint64(retryAfterMax-retryAfterMin+1))))
}

func (rt *Router) errJSON(w http.ResponseWriter, status int, err error) {
	if status == http.StatusServiceUnavailable || status == http.StatusBadGateway ||
		status == http.StatusTooManyRequests {
		rt.setRetryAfter(w)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// hopHeaders are stripped in both directions: they describe one TCP
// hop, not the end-to-end exchange.
var hopHeaders = []string{
	"Connection", "Proxy-Connection", "Keep-Alive", "Proxy-Authenticate",
	"Proxy-Authorization", "Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func copyHeaders(dst, src http.Header) {
	for k, vv := range src {
		for _, v := range vv {
			dst.Add(k, v)
		}
	}
	for _, h := range hopHeaders {
		dst.Del(h)
	}
}

// copyBufs recycles the 32 KiB buffers proxy streams responses
// through, so a proxied call allocates none of its own.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// proxy forwards the request to st, streaming the response through
// with a flush per chunk (the worker's stream-step emits ndjson lines
// that must not sit in a proxy buffer until the stream ends).
// Idempotency-Key and every other end-to-end header pass through
// untouched in both directions.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, st *shardState) {
	if st == nil {
		rt.errJSON(w, http.StatusServiceUnavailable, fmt.Errorf("no shard for request"))
		return
	}
	if !st.up.Load() {
		rt.errJSON(w, http.StatusServiceUnavailable,
			fmt.Errorf("shard %s down (%s); retry later", st.name, st.reasonStr()))
		return
	}
	out, err := http.NewRequestWithContext(r.Context(), r.Method,
		st.addrStr()+r.URL.RequestURI(), r.Body)
	if err != nil {
		rt.errJSON(w, http.StatusInternalServerError, err)
		return
	}
	copyHeaders(out.Header, r.Header)
	out.ContentLength = r.ContentLength

	// A tracing router joins the trace of a request that carries a
	// context: the forwarded request gets a fresh child span id so the
	// shard's root span links back to this proxy span. A request
	// without a valid context is forwarded as it came and runs
	// untraced on every hop.
	var endHop func(map[string]any)
	if link, ok := obsv.ParseTraceContext(r.Header.Get(obsv.TraceHeader)); ok && rt.tracer != nil {
		sc, endReq := rt.tracer.StartRequestLink("router", r.Method+" "+r.URL.Path, link)
		defer endReq()
		var tc obsv.TraceContext
		tc, endHop = sc.SpanLink("proxy", "proxy "+st.name)
		out.Header.Set(obsv.TraceHeader, tc.Header())
	}

	resp, err := rt.client.Do(out)
	if err != nil {
		// The shard was marked up but is not answering: record the
		// failure so routing stops sending work there before the next
		// health tick, and hand the client a retryable 502.
		rt.markDown(st, "proxy: "+err.Error())
		rt.errors.Inc()
		if endHop != nil {
			endHop(map[string]any{"shard": st.name, "ok": false})
		}
		rt.errJSON(w, http.StatusBadGateway,
			fmt.Errorf("shard %s unreachable: %v", st.name, err))
		return
	}
	defer resp.Body.Close()
	rt.proxied(st.name).Inc()
	if endHop != nil {
		// Deferred so the span covers the full streamed response, not
		// just the response headers.
		defer endHop(map[string]any{"shard": st.name, "status": resp.StatusCode})
	}

	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Phasetune-Shard", st.name)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away; nothing to clean up
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}

// mintID returns a fresh router-minted session id: 16 hex digits under
// an "r" prefix, valid under the engine's session-id rules. It runs a
// counter, offset by the router's id base, through splitmix64, a
// bijection: one router never repeats an id, and two routers built at
// different clock readings start a random-looking 64-bit distance
// apart, so their streams do not meet in practice.
func (rt *Router) mintID() string {
	return fmt.Sprintf("r%016x", splitmix64(rt.idBase+rt.idSeq.Add(1)))
}

// maxCreateBody bounds the create-session body the router is willing
// to decode for id injection; the worker enforces its own limit too.
const maxCreateBody = 1 << 20

func (rt *Router) routes() {
	// Session creation: the router must know the id before it can pick
	// the shard. A client-assigned id passes through and routes by its
	// own hash, or to its registered shard when a retry repeats a create
	// that committed; a body without one (a curl create, say) gets an id
	// minted here and injected into the forwarded body.
	rt.mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCreateBody))
		if err != nil {
			rt.errJSON(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body: %w", err))
			return
		}
		fields := map[string]any{}
		if len(bytes.TrimSpace(body)) > 0 {
			if err := json.Unmarshal(body, &fields); err != nil {
				rt.errJSON(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
				return
			}
		}
		// A null id reads as none, as it does at the worker.
		id, isString := fields["id"].(string)
		if !isString && fields["id"] != nil {
			rt.errJSON(w, http.StatusBadRequest, fmt.Errorf("bad request body: id must be a string"))
			return
		}
		if id == "" {
			id = rt.mintID()
			fields["id"] = id
		}
		forward, err := json.Marshal(fields)
		if err != nil {
			rt.errJSON(w, http.StatusInternalServerError, err)
			return
		}
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(forward))
		r2.ContentLength = int64(len(forward))
		target := rt.createShard(id)
		rt.proxy(&onCreated{ResponseWriter: w, fn: func() {
			// The create committed: from here on this shard serves the
			// session (and the supervisor watches it).
			rt.registerSession(id, target.name)
		}}, r2, target)
	})

	// Everything addressed to a session routes by the id's hash — the
	// single pattern covers GET /v1/sessions/{id} and every method on
	// its sub-resources (step, batch-step, stream-step, advance-epoch,
	// trace) — unless the supervisor has repointed the session at its
	// promoted follower.
	bySession := func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, rt.sessionShard(r.PathValue("id")))
	}
	rt.mux.HandleFunc("/v1/sessions/{id}", bySession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{op}", bySession)

	// Sweeps are sessionless: a keyed sweep hashes its Idempotency-Key
	// so the retry lands on the shard holding the committed result; an
	// unkeyed one round-robins.
	rt.mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) {
		var st *shardState
		if key := r.Header.Get("Idempotency-Key"); key != "" {
			st = rt.shardFor("sweep|" + key)
		} else {
			names := rt.ring.Names()
			st = rt.shards[names[rt.rrSeq.Add(1)%uint64(len(names))]]
		}
		rt.proxy(w, r, st)
	})

	rt.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		rt.serveMetrics(r.Context(), w)
	})

	// One fleet trace, stitched: the router's own slice plus every
	// shard's GET /v1/trace slice, remapped onto per-process pid lanes
	// and joined by flow arrows. ?trace= selects a fleet trace id,
	// ?session= every span of one session across the fleet.
	rt.mux.HandleFunc("GET /v1/fleet/trace", func(w http.ResponseWriter, r *http.Request) {
		rt.serveFleetTrace(w, r)
	})

	// The fleet event log: every process's structured events (the
	// router's own under shard="router") merged into one causal order.
	rt.mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		rt.serveFleetEvents(r.Context(), w)
	})

	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		rt.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	// Ready iff every shard is ready: a partially-up fleet would
	// blackhole the sessions hashed onto the dead shards, so the router
	// only advertises readiness it can back for every key.
	rt.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		var down []map[string]string
		for _, st := range rt.sortedStates() {
			if !st.up.Load() {
				down = append(down, map[string]string{
					"name": st.name, "addr": st.addrStr(), "reason": st.reasonStr(),
				})
			}
		}
		if len(down) > 0 {
			rt.setRetryAfter(w)
			rt.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded", "down": down,
			})
			return
		}
		rt.writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "shards": len(rt.shards),
		})
	})

	// The supervisor's session registry: which shard serves each
	// router-created session, and its last known generation. A session
	// whose shard differs from its ring owner has been auto-promoted.
	rt.mux.HandleFunc("GET /admin/sessions", func(w http.ResponseWriter, r *http.Request) {
		type view struct {
			ID    string `json:"id"`
			Shard string `json:"shard"`
			Gen   uint64 `json:"gen"`
		}
		rt.sessMu.Lock()
		out := make([]view, 0, len(rt.sess))
		for id, ent := range rt.sess {
			out = append(out, view{ID: id, Shard: ent.owner, Gen: ent.gen})
		}
		rt.sessMu.Unlock()
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		rt.writeJSON(w, http.StatusOK, out)
	})

	rt.mux.HandleFunc("GET /admin/shards", func(w http.ResponseWriter, r *http.Request) {
		type view struct {
			Shard
			Up     bool   `json:"up"`
			Reason string `json:"reason,omitempty"`
		}
		out := make([]view, 0, len(rt.shards))
		for _, st := range rt.sortedStates() {
			out = append(out, view{Shard: st.view(), Up: st.up.Load(), Reason: st.reasonStr()})
		}
		rt.writeJSON(w, http.StatusOK, out)
	})

	// Repoint a shard name at a replacement address — the failover
	// second half: restart the worker with -recover on a new port, then
	// POST the new address here. The name's ring position is untouched,
	// so every session the dead process owned routes to the recovered
	// one. The response reflects a synchronous health probe of the new
	// address.
	rt.mux.HandleFunc("POST /admin/shards", func(w http.ResponseWriter, r *http.Request) {
		var req Shard
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			rt.errJSON(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return
		}
		st, ok := rt.shards[req.Name]
		if !ok {
			rt.errJSON(w, http.StatusNotFound,
				fmt.Errorf("unknown shard %q (membership is fixed; only addresses repoint)", req.Name))
			return
		}
		if req.Addr == "" {
			rt.errJSON(w, http.StatusBadRequest, fmt.Errorf("shard %q: empty address", req.Name))
			return
		}
		st.addr.Store(req.Addr)
		rt.failover.Inc()
		rt.checkOne(r.Context(), st) // synchronous: the response reports the new address's real state
		rt.writeJSON(w, http.StatusOK, map[string]any{
			"name": st.name, "addr": st.addrStr(), "up": st.up.Load(), "reason": st.reasonStr(),
		})
	})
}

// onCreated runs fn when the proxied response's status is 201, before
// any byte of the response reaches the client, so the create handler
// registers a session before its creator can act on the 201 (were the
// owner to die at once, the supervisor must already know the session).
// Flush passes through — stream responses must not buffer behind the
// wrapper.
type onCreated struct {
	http.ResponseWriter
	fn func()
}

func (w *onCreated) WriteHeader(code int) {
	if code == http.StatusCreated {
		w.fn()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *onCreated) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// serveFleetTrace stitches one fleet trace (?trace=) or one session's
// spans (?session=) from every process's slice. A shard that answers
// 404 simply did not participate in the trace; a shard that cannot be
// reached is skipped the same way — the stitched view is best-effort
// by design, and the trace id makes a later retry cheap.
func (rt *Router) serveFleetTrace(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traceID, session := q.Get("trace"), q.Get("session")
	if traceID == "" && session == "" {
		rt.errJSON(w, http.StatusBadRequest, fmt.Errorf("need a trace or session parameter"))
		return
	}
	var slices []obsv.FleetSlice
	if rt.tracer != nil {
		var (
			evs []trace.ChromeEvent
			ok  bool
		)
		if traceID != "" {
			evs, ok = rt.tracer.TraceEvents(traceID)
		} else {
			evs, ok = rt.tracer.SessionEvents(session)
		}
		if ok {
			slices = append(slices, obsv.FleetSlice{
				Proc: "router", Base: rt.tracer.Base(), Events: evs,
			})
		}
	}
	param := "?trace=" + traceID
	if traceID == "" {
		param = "?session=" + session
	}
	for _, st := range rt.sortedStates() {
		resp, err := rt.get(r.Context(), st.addrStr()+"/v1/trace"+param)
		if err != nil {
			rt.errors.Inc()
			continue
		}
		var body struct {
			Events []trace.ChromeEvent `json:"events"`
			Base   int64               `json:"base"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		code := resp.StatusCode
		_ = resp.Body.Close()
		if code != http.StatusOK || err != nil {
			continue
		}
		slices = append(slices, obsv.FleetSlice{Proc: st.name, Base: body.Base, Events: body.Events})
	}
	if len(slices) == 0 {
		rt.errJSON(w, http.StatusNotFound,
			fmt.Errorf("no fleet member holds spans for trace %q session %q", traceID, session))
		return
	}
	key := map[string]any{"trace": traceID}
	if traceID == "" {
		key = map[string]any{"session": session}
	}
	data, err := obsv.StitchFleetTrace(slices, key)
	if err != nil {
		rt.errJSON(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// serveFleetEvents merges the fleet's structured event logs — the
// router's own plus every reachable shard's — into one shard-stamped,
// time-ordered view. Unreachable shards are skipped (their file-backed
// logs, when configured, survive for later inspection).
func (rt *Router) serveFleetEvents(ctx context.Context, w http.ResponseWriter) {
	byShard := map[string][]events.Event{"router": rt.events.Events()}
	evicted := rt.events.Evicted()
	for _, st := range rt.sortedStates() {
		resp, err := rt.get(ctx, st.addrStr()+"/v1/events")
		if err != nil {
			rt.errors.Inc()
			continue
		}
		var body struct {
			Events  []events.Event `json:"events"`
			Evicted uint64         `json:"evicted"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		code := resp.StatusCode
		_ = resp.Body.Close()
		if code != http.StatusOK || err != nil {
			continue
		}
		byShard[st.name] = body.Events
		evicted += body.Evicted
	}
	merged := events.Merge(byShard)
	if merged == nil {
		merged = []events.Event{}
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{"events": merged, "evicted": evicted})
}

// prometheusContentType matches the worker's exposition version.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// serveMetrics aggregates the fleet: each shard's Prometheus text is
// scraped and re-emitted with a shard="<name>" label spliced into
// every sample (HELP/TYPE lines deduplicated across shards), then the
// router's own counters, then fleet-summed phasetune_fleet_* families
// (identical-name samples from every shard merged by label set —
// histogram buckets included, which the shard-labeled view cannot
// offer a single series for). One scrape gives both the per-shard
// breakdown and fleet-wide totals without a separate aggregation
// service.
func (rt *Router) serveMetrics(ctx context.Context, w http.ResponseWriter) {
	var buf bytes.Buffer
	seenMeta := map[string]bool{}
	agg := newFleetAgg()
	for _, st := range rt.sortedStates() {
		resp, err := rt.get(ctx, st.addrStr()+"/metrics")
		if err != nil {
			rt.errors.Inc()
			fmt.Fprintf(&buf, "# shard %s: scrape failed: %s\n", st.name, err)
			continue
		}
		rewriteMetrics(&buf, resp.Body, st.name, seenMeta, agg)
		_ = resp.Body.Close()
	}
	if err := rt.reg.WritePrometheus(&buf); err != nil {
		rt.errJSON(w, http.StatusInternalServerError, err)
		return
	}
	agg.write(&buf)
	w.Header().Set("Content-Type", prometheusContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = buf.WriteTo(w)
}

// rewriteMetrics copies one shard's exposition text into buf, tagging
// every sample line with shard="<name>" and passing HELP/TYPE comments
// through once per metric across the whole aggregation. Samples also
// feed agg, the fleet-summed view.
func rewriteMetrics(buf *bytes.Buffer, r io.Reader, shard string, seenMeta map[string]bool, agg *fleetAgg) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#"):
			// "# HELP <name> ..." / "# TYPE <name> ..." — keep the first
			// shard's copy, drop repeats.
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "HELP" || f[1] == "TYPE") {
				if f[1] == "TYPE" {
					agg.setType(f[2], strings.Join(f[3:], " "))
				}
				metaKey := f[1] + " " + f[2]
				if seenMeta[metaKey] {
					continue
				}
				seenMeta[metaKey] = true
			}
			buf.WriteString(line)
			buf.WriteByte('\n')
		default:
			agg.add(line)
			buf.WriteString(injectShardLabel(line, shard))
			buf.WriteByte('\n')
		}
	}
}

// fleetAgg accumulates fleet-wide sums of the shards' phasetune_*
// samples as the shard-labeled lines stream through rewriteMetrics,
// merging identical (name, label-set) samples across shards — the sum
// is the right merge for counters, additive gauges, and histogram
// bucket/sum/count triples alike, provided every shard runs the same
// binary (same bucket bounds).
type fleetAgg struct {
	types   map[string]string // family name -> counter | gauge | histogram
	order   []string          // sample names in first-appearance order
	samples map[string]*fleetSamples
}

// fleetSamples is one sample name's accumulated label-set sums.
type fleetSamples struct {
	order []string // label signatures in first-appearance order
	vals  map[string]float64
}

func newFleetAgg() *fleetAgg {
	return &fleetAgg{types: map[string]string{}, samples: map[string]*fleetSamples{}}
}

func (a *fleetAgg) setType(name, typ string) {
	if a.types[name] == "" {
		a.types[name] = typ
	}
}

// add parses one sample line and accumulates it. Lines outside the
// phasetune_ namespace (or unparsable ones) are left to the shard-
// labeled view only.
func (a *fleetAgg) add(line string) {
	name, labels, v, ok := parseSample(line)
	if !ok || !strings.HasPrefix(name, "phasetune_") {
		return
	}
	s := a.samples[name]
	if s == nil {
		s = &fleetSamples{vals: map[string]float64{}}
		a.samples[name] = s
		a.order = append(a.order, name)
	}
	if _, seen := s.vals[labels]; !seen {
		s.order = append(s.order, labels)
	}
	s.vals[labels] += v
}

// familyOf maps a sample name onto its declared family: histogram
// samples arrive as <family>_bucket/_sum/_count with the TYPE line on
// the bare family name.
func (a *fleetAgg) familyOf(name string) string {
	if a.types[name] != "" {
		return name
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && a.types[base] == "histogram" {
			return base
		}
	}
	return name
}

// write emits the fleet-summed families as phasetune_fleet_*. Sample
// order follows first appearance, which keeps each family's samples
// contiguous (the shards emit families whole).
func (a *fleetAgg) write(buf *bytes.Buffer) {
	meta := map[string]bool{}
	for _, name := range a.order {
		fam := a.familyOf(name)
		fleetFam := "phasetune_fleet_" + strings.TrimPrefix(fam, "phasetune_")
		if !meta[fam] {
			meta[fam] = true
			typ := a.types[fam]
			if typ == "" {
				typ = "untyped"
			}
			fmt.Fprintf(buf, "# HELP %s fleet-wide sum across shards of %s\n", fleetFam, fam)
			fmt.Fprintf(buf, "# TYPE %s %s\n", fleetFam, typ)
		}
		fleetName := "phasetune_fleet_" + strings.TrimPrefix(name, "phasetune_")
		s := a.samples[name]
		for _, labels := range s.order {
			buf.WriteString(fleetName)
			if labels != "" {
				buf.WriteString("{" + labels + "}")
			}
			fmt.Fprintf(buf, " %s\n", strconv.FormatFloat(s.vals[labels], 'g', -1, 64))
		}
	}
}

// parseSample splits one exposition sample line into name, raw label
// block (without braces), and value. The label scan respects quoted
// values and backslash escapes, so session ids and error strings in
// labels cannot derail it.
func parseSample(line string) (name, labels string, value float64, ok bool) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		end := -1
		inQuote := false
		for j := brace + 1; j < len(line); j++ {
			switch line[j] {
			case '\\':
				if inQuote {
					j++
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", 0, false
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line[end+1:]), 64)
		if err != nil {
			return "", "", 0, false
		}
		return line[:brace], line[brace+1 : end], v, true
	}
	if space < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[space+1:]), 64)
	if err != nil {
		return "", "", 0, false
	}
	return line[:space], "", v, true
}

// injectShardLabel splices shard="<name>" into one sample line,
// handling both the bare (`metric value`) and labeled
// (`metric{a="b"} value`) forms.
func injectShardLabel(line, shard string) string {
	label := `shard="` + shard + `"`
	if i := strings.IndexByte(line, '{'); i >= 0 && i < strings.IndexByte(line, ' ') {
		if line[i+1] == '}' { // metric{} value
			return line[:i+1] + label + line[i+1:]
		}
		return line[:i+1] + label + "," + line[i+1:]
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return line // not a sample line; pass through untouched
	}
	return line[:i] + "{" + label + "}" + line[i:]
}
