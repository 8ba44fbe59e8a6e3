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
// process starting at simPIDBase so the two time bases never share an
// axis in Perfetto.
const (
	servicePID = 1
	simPIDBase = 100
)

// defaultMaxEvents bounds each of a session's two event budgets, one
// for wall-clock request spans and one for sim-time task events; past a
// budget new events are counted as dropped rather than recorded. The
// budgets are separate so that an evaluation's thousands of task events
// never crowd out the request spans recorded after it.
const defaultMaxEvents = 20000

// TraceRecorder accumulates Chrome trace events per session. All
// methods are safe for concurrent use and nil-receiver-safe.
type TraceRecorder struct {
	now  func() int64
	base int64 // clock reading at construction; exported ts are relative

	mu       sync.Mutex
	maxPer   int
	sessions map[string]*sessionTrace
	idSeq    uint64
	traces   map[string][]*traceRef
}

// traceRef locates the slice of one session trace that belongs to a
// fleet trace id: the wall-clock request track plus any sim-time eval
// processes spawned under it.
type traceRef struct {
	session string
	tid     int
	simPIDs []int
}

type sessionTrace struct {
	events  []trace.ChromeEvent
	wall    int // wall-clock events kept, at most maxPer
	sim     int // sim-time events kept, at most maxPer
	dropped int // events past either budget
	nextTID int // wall-clock request tracks on servicePID
	nextPID int // sim-time eval processes above simPIDBase
}

// NewTraceRecorder builds a recorder around an injected nanosecond
// clock. A nil clock freezes timestamps at zero.
func NewTraceRecorder(nowNanos func() int64) *TraceRecorder {
	if nowNanos == nil {
		nowNanos = func() int64 { return 0 }
	}
	return &TraceRecorder{
		now:      nowNanos,
		base:     nowNanos(),
		maxPer:   defaultMaxEvents,
		sessions: map[string]*sessionTrace{},
		traces:   map[string][]*traceRef{},
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

func (r *TraceRecorder) session(id string) *sessionTrace {
	st, ok := r.sessions[id]
	if !ok {
		st = &sessionTrace{}
		r.sessions[id] = st
	}
	return st
}

// add records one wall-clock event against the session's wall budget.
func (r *TraceRecorder) add(id string, ev trace.ChromeEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.session(id)
	if st.wall >= r.maxPer {
		st.dropped++
		return
	}
	st.wall++
	st.events = append(st.events, ev)
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
	st := r.session(session)
	tid := st.nextTID
	st.nextTID++
	traceID, parent := link.TraceID, link.SpanID
	if !link.Valid() {
		traceID, parent = r.mintID(), ""
	}
	spanID := r.mintID()
	ref := &traceRef{session: session, tid: tid}
	r.traces[traceID] = append(r.traces[traceID], ref)
	r.mu.Unlock()
	sc := &SpanCtx{rec: r, session: session, tid: tid, traceID: traceID, spanID: spanID, ref: ref}
	end := sc.Span("http", name)
	args := map[string]any{"trace": traceID, "span": spanID}
	if parent != "" {
		args["parent"] = parent
	}
	return sc, func() { end(args) }
}

// SpanCtx identifies one request's wall-clock track within a session
// trace, plus the request's position in its fleet trace. A nil
// *SpanCtx is a valid no-op.
type SpanCtx struct {
	rec     *TraceRecorder
	session string
	tid     int
	traceID string
	spanID  string
	ref     *traceRef
}

// TraceContext returns the identifiers an outgoing hop should send in
// its X-Phasetune-Trace header when the hop itself needs no dedicated
// span (the receiver's root span links directly to this request's root
// span). The zero value is returned on a nil context.
func (sc *SpanCtx) TraceContext() TraceContext {
	if sc == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: sc.traceID, SpanID: sc.spanID}
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
	return TraceContext{TraceID: sc.traceID, SpanID: child}, func(args map[string]any) {
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
		sc.rec.add(sc.session, trace.ChromeEvent{
			Name: name,
			Cat:  cat,
			Ph:   "X",
			TS:   sc.rec.micros(start),
			Dur:  float64(end-start) / 1e3,
			PID:  servicePID,
			TID:  sc.tid,
			Args: args,
		})
	}
}

// SimEval attaches one DES evaluation's sim-time task spans to the
// session trace as its own process track, named after the evaluation:
// a process_name event, then trace.ChromeEvents of the spans.
// Timestamps inside are simulated seconds (rendered as trace-event
// microseconds), deliberately on a different pid than the wall-clock
// spans. Only the events the session's sim budget still has room for
// are built; the rest are counted as dropped.
func (sc *SpanCtx) SimEval(name string, spans []trace.Span) {
	if sc == nil || len(spans) == 0 {
		return
	}
	units := trace.Units(spans)
	total := 1 + len(units) + len(spans)
	sc.rec.mu.Lock()
	st := sc.rec.session(sc.session)
	pid := simPIDBase + st.nextPID
	st.nextPID++
	if sc.ref != nil {
		sc.ref.simPIDs = append(sc.ref.simPIDs, pid)
	}
	keep := min(total, sc.rec.maxPer-st.sim)
	st.sim += keep
	st.dropped += total - keep
	sc.rec.mu.Unlock()
	if keep == 0 {
		return
	}
	evs := make([]trace.ChromeEvent, 0, keep)
	evs = append(evs, trace.ChromeEvent{
		Name: "process_name",
		Ph:   "M",
		PID:  pid,
		Args: map[string]any{"name": "sim: " + name},
	})
	evs = append(evs, trace.ChromeEventsPrefix(spans, units, pid, keep-1)...)
	sc.rec.mu.Lock()
	st.events = append(st.events, evs...)
	sc.rec.mu.Unlock()
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

// Export renders one session's trace as a Chrome trace-event JSON
// document. ok is false when the session has no recorded events.
func (r *TraceRecorder) Export(session string) ([]byte, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	st, found := r.sessions[session]
	var evs []trace.ChromeEvent
	var dropped int
	if found {
		evs = append(evs, st.events...)
		dropped = st.dropped
	}
	r.mu.Unlock()
	if !found {
		return nil, false
	}
	// Metadata events first, then events in timestamp order; stable
	// secondary keys keep the export deterministic.
	sortChromeEvents(evs)
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
// event recorded on a request track that joined traceID (wall-clock
// spans plus the sim-time eval processes spawned under them), in the
// deterministic export order. ok is false when the trace id is
// unknown to this recorder. The events still carry this process's
// local pid/tid numbering — the fleet stitcher remaps lanes.
func (r *TraceRecorder) TraceEvents(traceID string) ([]trace.ChromeEvent, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	refs := r.traces[traceID]
	var evs []trace.ChromeEvent
	for _, ref := range refs {
		st, found := r.sessions[ref.session]
		if !found {
			continue
		}
		pids := make(map[int]bool, len(ref.simPIDs))
		for _, p := range ref.simPIDs {
			pids[p] = true
		}
		for _, ev := range st.events {
			if (ev.PID == servicePID && ev.TID == ref.tid) || pids[ev.PID] {
				evs = append(evs, ev)
			}
		}
	}
	r.mu.Unlock()
	if len(refs) == 0 {
		return nil, false
	}
	sortChromeEvents(evs)
	return evs, true
}

// SessionEvents returns every event recorded for one session in the
// deterministic export order — the per-session counterpart of
// TraceEvents for fleet stitching. ok is false when the session has no
// recorded events.
func (r *TraceRecorder) SessionEvents(session string) ([]trace.ChromeEvent, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.Lock()
	st, found := r.sessions[session]
	var evs []trace.ChromeEvent
	if found {
		evs = append(evs, st.events...)
	}
	r.mu.Unlock()
	if !found {
		return nil, false
	}
	sortChromeEvents(evs)
	return evs, true
}

// Sessions lists the session ids with recorded events, sorted.
func (r *TraceRecorder) Sessions() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := make([]string, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
