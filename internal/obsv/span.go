package obsv

import (
	"context"
	"encoding/json"
	"sort"
	"sync"

	"phasetune/internal/trace"
)

// Chrome trace-event process tracks. The service's wall-clock spans
// live on pid 1; each traced DES evaluation gets its own sim-time
// process in [simPIDBase, simPIDLimit) so the two time bases never
// share an axis in Perfetto. The fleet stitcher gives each process a
// pid range of fleetPIDStride, so every local pid stays below it.
const (
	servicePID  = 1
	simPIDBase  = 100
	simPIDLimit = fleetPIDStride
)

// The recorder's two bounds, in events, over the whole process. Wall
// holds request spans and sim holds the task events of traced
// evaluations; they are separate so that a burst of traced cold
// evaluations evicts older sim lanes and never a request span. The
// wall bound holds every span one process records in a 15-second
// traced benchmark run, so a trace fetched after the load is still
// whole. A 48-tile evaluation has about 21k tasks, so the sim bound
// holds the newest few lanes.
const (
	maxWallEvents = 1 << 17
	maxSimEvents  = 1 << 16
)

// TraceRecorder holds the spans of the traced requests of one process
// in a store of constant size: request tracks (one tid each, on the
// service pid) and sim-time evaluation lanes (one pid each), each
// evicted whole, oldest first, when its bound is reached. All methods
// are safe for concurrent use and nil-receiver-safe.
type TraceRecorder struct {
	now  func() int64
	base int64 // clock reading at construction; exported ts are relative

	mu      sync.Mutex
	idSeq   uint64
	maxWall int
	maxSim  int
	wall    int // events held on live tracks
	sim     int // events reserved by live lanes
	dropped int // events evicted or refused
	nextTID int
	nextPID int      // lowest sim pid never handed out
	freePID []int    // pids of evicted lanes, free for reuse
	tracks  []*track // oldest first
	lanes   []*lane  // oldest first
}

// track is one request's wall-clock spans: a thread on the service pid.
type track struct {
	session string
	traceID string
	tid     int
	events  []trace.ChromeEvent
	lanes   []*lane // sim lanes of the evaluations this request ran
	evicted bool
}

// lane is one traced evaluation's sim-time task events: a process of
// its own. n events are reserved when the lane opens; the events
// arrive later, built outside the lock.
type lane struct {
	pid     int
	n       int
	events  []trace.ChromeEvent
	evicted bool
}

// NewTraceRecorder builds a recorder around an injected nanosecond
// clock. A nil clock freezes timestamps at zero.
func NewTraceRecorder(nowNanos func() int64) *TraceRecorder {
	if nowNanos == nil {
		nowNanos = func() int64 { return 0 }
	}
	return &TraceRecorder{
		now:     nowNanos,
		base:    nowNanos(),
		maxWall: maxWallEvents,
		maxSim:  maxSimEvents,
		nextPID: simPIDBase,
	}
}

// mintID returns a fresh 16-hex-char identifier. Ids mix the
// recorder's construction clock reading with a sequence counter
// through splitmix64, so concurrent processes (whose wall clocks
// differ at nanosecond granularity) mint disjoint ids without any
// coordination. Callers must hold r.mu.
func (r *TraceRecorder) mintID() string {
	r.idSeq++
	x := uint64(r.base)*0x9e3779b97f4a7c15 + r.idSeq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// Base returns the recorder's construction clock reading in
// nanoseconds — the zero point of every exported timestamp. The fleet
// stitcher offsets each process's events by its base so lanes recorded
// by different processes share one time axis. Zero on a nil recorder.
func (r *TraceRecorder) Base() int64 {
	if r == nil {
		return 0
	}
	return r.base
}

// add records one wall-clock event on t. Past the wall bound the
// oldest other track is evicted; a track that alone fills the bound
// keeps its prefix. An event for an evicted track is dropped.
func (r *TraceRecorder) add(t *track, ev trace.ChromeEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !t.evicted && r.wall >= r.maxWall {
		if !r.evictTrack(t) {
			break
		}
	}
	if t.evicted || r.wall >= r.maxWall {
		r.dropped++
		return
	}
	t.events = append(t.events, ev)
	r.wall++
}

// evictTrack evicts the oldest track other than keep and reports
// false when keep is the only one. The lanes of an evicted track stay
// until the sim bound evicts them, which it does oldest first.
func (r *TraceRecorder) evictTrack(keep *track) bool {
	if r.tracks[0] == keep {
		if len(r.tracks) == 1 {
			return false
		}
		// keep stays the oldest: it takes its successor's slot.
		r.tracks[0], r.tracks[1] = r.tracks[1], keep
	}
	victim := r.tracks[0]
	r.tracks[0] = nil
	r.tracks = r.tracks[1:]
	victim.evicted = true
	r.wall -= len(victim.events)
	r.dropped += len(victim.events)
	victim.events, victim.lanes = nil, nil
	return true
}

// evictLane evicts the oldest lane, counting its whole reservation,
// filled or not, and frees its pid. Callers ensure a lane exists.
func (r *TraceRecorder) evictLane() {
	ln := r.lanes[0]
	r.lanes[0] = nil
	r.lanes = r.lanes[1:]
	ln.evicted = true
	ln.events = nil
	r.sim -= ln.n
	r.dropped += ln.n
	r.freePID = append(r.freePID, ln.pid)
}

// openLane reserves room for an evaluation's lane of total events on
// t, evicting the oldest lanes first, and returns nil when nothing is
// kept. A lane larger than the sim bound keeps its prefix. The pid
// comes from [simPIDBase, simPIDLimit) and is reused only after its
// lane is evicted, so no export holds two lanes with one pid.
func (r *TraceRecorder) openLane(t *track, total int) *lane {
	keep := min(total, r.maxSim)
	if t.evicted || keep <= 0 {
		r.dropped += total
		return nil
	}
	r.dropped += total - keep
	for r.sim+keep > r.maxSim {
		r.evictLane()
	}
	pid := r.nextPID
	if pid < simPIDLimit {
		r.nextPID++
	} else {
		if len(r.freePID) == 0 {
			r.evictLane()
		}
		pid = r.freePID[len(r.freePID)-1]
		r.freePID = r.freePID[:len(r.freePID)-1]
	}
	ln := &lane{pid: pid, n: keep}
	r.sim += keep
	r.lanes = append(r.lanes, ln)
	t.lanes = append(t.lanes, ln)
	return ln
}

// micros converts an absolute clock reading to microseconds since the
// recorder's base, the unit Chrome trace events use.
func (r *TraceRecorder) micros(nanos int64) float64 {
	return float64(nanos-r.base) / 1e3
}

// StartRequest opens the root wall-clock span for one HTTP request
// against a session, on a fresh thread track, and returns the span
// context to thread through the request plus the func that closes the
// root span. On a nil recorder both returns are safe no-ops (the
// SpanCtx is nil). The request starts a fresh fleet trace; use
// StartRequestLink to join one arriving in an X-Phasetune-Trace header.
func (r *TraceRecorder) StartRequest(session, name string) (*SpanCtx, func()) {
	return r.StartRequestLink(session, name, TraceContext{})
}

// StartRequestLink is StartRequest for a request carrying an inbound
// trace context: the new root span joins link's trace id and records
// link's span id as its cross-process parent. An invalid link mints a
// fresh trace id, making this process the first hop.
func (r *TraceRecorder) StartRequestLink(session, name string, link TraceContext) (*SpanCtx, func()) {
	if r == nil {
		return nil, func() {}
	}
	r.mu.Lock()
	traceID, parent := link.TraceID, link.SpanID
	if !link.Valid() {
		traceID, parent = r.mintID(), ""
	}
	spanID := r.mintID()
	t := &track{session: session, traceID: traceID, tid: r.nextTID}
	r.nextTID++
	r.tracks = append(r.tracks, t)
	r.mu.Unlock()
	sc := &SpanCtx{rec: r, track: t, spanID: spanID}
	end := sc.Span("http", name)
	args := map[string]any{"trace": traceID, "span": spanID}
	if parent != "" {
		args["parent"] = parent
	}
	return sc, func() { end(args) }
}

// SpanCtx identifies one request's wall-clock track, plus the
// request's position in its fleet trace. A nil *SpanCtx is a valid
// no-op.
type SpanCtx struct {
	rec    *TraceRecorder
	track  *track
	spanID string
}

// TraceContext returns the identifiers an outgoing hop should send in
// its X-Phasetune-Trace header when the hop itself needs no dedicated
// span (the receiver's root span links directly to this request's root
// span). The zero value is returned on a nil context.
func (sc *SpanCtx) TraceContext() TraceContext {
	if sc == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: sc.track.traceID, SpanID: sc.spanID}
}

// SpanLink opens a wall-clock span for one outgoing cross-process hop
// (a replica ship, a peer peek, a proxy attempt) and returns the trace
// context to send in the hop's X-Phasetune-Trace header: the hop gets
// its own child span id, which the receiving process records as its
// root span's parent. The returned end func closes the span; the hop's
// span/parent ids are merged into its args. On a nil context the
// returned TraceContext is the zero value (callers emit no header) and
// the end func is the shared no-op.
func (sc *SpanCtx) SpanLink(cat, name string) (TraceContext, func(args map[string]any)) {
	if sc == nil {
		return TraceContext{}, noopEnd
	}
	sc.rec.mu.Lock()
	child := sc.rec.mintID()
	sc.rec.mu.Unlock()
	end := sc.Span(cat, name)
	return TraceContext{TraceID: sc.track.traceID, SpanID: child}, func(args map[string]any) {
		if args == nil {
			args = make(map[string]any, 2)
		}
		args["span"] = child
		args["parent"] = sc.spanID
		end(args)
	}
}

// Tracing reports whether spans recorded through this context are kept.
// Instrumented code uses it to skip building span arguments when
// telemetry is off.
func (sc *SpanCtx) Tracing() bool { return sc != nil }

// noopEnd is the shared end func returned from nil span contexts so the
// disabled path allocates nothing.
var noopEnd = func(map[string]any) {}

// Span opens a wall-clock span on this request's track and returns the
// func that closes it; args passed at close are attached to the event.
// Callers must only build the args map when Tracing() is true.
func (sc *SpanCtx) Span(cat, name string) func(args map[string]any) {
	if sc == nil {
		return noopEnd
	}
	return sc.span(cat, name)
}

// span is Span's enabled path, kept out of line so the nil check
// inlines into callers.
func (sc *SpanCtx) span(cat, name string) func(args map[string]any) {
	start := sc.rec.now()
	return func(args map[string]any) {
		end := sc.rec.now()
		sc.rec.add(sc.track, trace.ChromeEvent{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   sc.rec.micros(start),
			Dur:  float64(end-start) / 1e3,
			PID:  servicePID,
			TID:  sc.track.tid,
			Args: args,
		})
	}
}

// SimEval attaches one DES evaluation's sim-time task spans to the
// request's trace as its own process track, named after the
// evaluation: a process_name event, then trace.ChromeEvents of the
// spans. Timestamps inside are simulated seconds (rendered as
// trace-event microseconds), deliberately on a different pid than the
// wall-clock spans. The lane's room is reserved first, and only the
// events it keeps are built, outside the lock; if the lane is evicted
// meanwhile, they are dropped.
func (sc *SpanCtx) SimEval(name string, spans []trace.Span) {
	if sc == nil || len(spans) == 0 {
		return
	}
	units := trace.Units(spans)
	r := sc.rec
	r.mu.Lock()
	ln := r.openLane(sc.track, 1+len(units)+len(spans))
	r.mu.Unlock()
	if ln == nil {
		return
	}
	evs := make([]trace.ChromeEvent, 0, ln.n)
	evs = append(evs, trace.ChromeEvent{
		Name: "process_name",
		Ph:   "M",
		PID:  ln.pid,
		Args: map[string]any{"name": "sim: " + name},
	})
	evs = append(evs, trace.ChromeEventsPrefix(spans, units, ln.pid, ln.n-1)...)
	r.mu.Lock()
	if !ln.evicted {
		ln.events = evs
	}
	r.mu.Unlock()
}

// ctxKey is the context key for a *SpanCtx.
type ctxKey struct{}

// ContextWith returns ctx carrying sc. A nil sc returns ctx unchanged,
// keeping FromContext's nil fast path.
func ContextWith(ctx context.Context, sc *SpanCtx) context.Context {
	if sc == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sc)
}

// FromContext extracts the request's span context, or nil when the
// request is untraced — the zero-cost disabled path.
func FromContext(ctx context.Context) *SpanCtx {
	sc, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	return sc
}

// chromeDoc is the Chrome trace-event JSON object form.
type chromeDoc struct {
	TraceEvents     []trace.ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string              `json:"displayTimeUnit"`
	OtherData       map[string]any      `json:"otherData,omitempty"`
}

// collect copies the events of every live track match accepts, with
// the live lanes those tracks spawned, in the deterministic export
// order. found is false when no track matched. Callers must not hold
// r.mu.
func (r *TraceRecorder) collect(match func(*track) bool) (evs []trace.ChromeEvent, dropped int, found bool) {
	r.mu.Lock()
	for _, t := range r.tracks {
		if !match(t) {
			continue
		}
		found = true
		evs = append(evs, t.events...)
		for _, ln := range t.lanes {
			evs = append(evs, ln.events...)
		}
	}
	dropped = r.dropped
	r.mu.Unlock()
	sortChromeEvents(evs)
	return evs, dropped, found
}

// Export renders one session's trace as a Chrome trace-event JSON
// document. ok is false when the store holds no request of the
// session. otherData.droppedEvents counts every event this process
// has evicted or refused.
func (r *TraceRecorder) Export(session string) ([]byte, bool) {
	if r == nil {
		return nil, false
	}
	evs, dropped, found := r.collect(func(t *track) bool { return t.session == session })
	if !found {
		return nil, false
	}
	doc := chromeDoc{
		TraceEvents: append([]trace.ChromeEvent{{
			Name: "process_name",
			Ph:   "M",
			PID:  servicePID,
			Args: map[string]any{"name": "phasetune service (wall clock)"},
		}}, evs...),
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"session": session},
	}
	if dropped > 0 {
		doc.OtherData["droppedEvents"] = dropped
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return nil, false
	}
	return out, true
}

// sortChromeEvents orders events metadata-first, then by (ts, pid,
// tid, name) with a stable sort, the deterministic export order.
func sortChromeEvents(evs []trace.ChromeEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		im, jm := evs[i].Ph == "M", evs[j].Ph == "M"
		if im != jm {
			return im
		}
		if evs[i].TS < evs[j].TS {
			return true
		}
		if evs[j].TS < evs[i].TS {
			return false
		}
		if evs[i].PID != evs[j].PID {
			return evs[i].PID < evs[j].PID
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].Name < evs[j].Name
	})
}

// TraceEvents returns this process's slice of one fleet trace: every
// event the store holds on a request track that joined traceID
// (wall-clock spans plus the sim-time eval processes spawned under
// them), in the deterministic export order. ok is false when no such
// track is held. The events still carry this process's local pid/tid
// numbering — the fleet stitcher remaps lanes.
func (r *TraceRecorder) TraceEvents(traceID string) ([]trace.ChromeEvent, bool) {
	if r == nil {
		return nil, false
	}
	evs, _, found := r.collect(func(t *track) bool { return t.traceID == traceID })
	return evs, found
}

// SessionEvents returns every event held for one session in the
// deterministic export order — the per-session counterpart of
// TraceEvents for fleet stitching. ok is false when the store holds no
// request of the session.
func (r *TraceRecorder) SessionEvents(session string) ([]trace.ChromeEvent, bool) {
	if r == nil {
		return nil, false
	}
	evs, _, found := r.collect(func(t *track) bool { return t.session == session })
	return evs, found
}

// Sessions lists the session ids of the requests the store holds,
// sorted.
func (r *TraceRecorder) Sessions() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	seen := map[string]bool{}
	ids := []string{}
	for _, t := range r.tracks {
		if !seen[t.session] {
			seen[t.session] = true
			ids = append(ids, t.session)
		}
	}
	r.mu.Unlock()
	sort.Strings(ids)
	return ids
}
