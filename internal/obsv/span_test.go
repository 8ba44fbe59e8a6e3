package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"phasetune/internal/trace"
)

// tick returns a deterministic clock advancing 1ms per reading.
func tick() func() int64 {
	var n atomic.Int64
	return func() int64 { return n.Add(1e6) }
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *TraceRecorder
	sc, end := r.StartRequest("s", "GET /x")
	if sc != nil {
		t.Fatal("nil recorder must hand out a nil span context")
	}
	end()
	if sc.Tracing() {
		t.Fatal("nil SpanCtx reports Tracing")
	}
	sc.Span("cat", "name")(nil)
	sc.SimEval("e", []trace.Span{{Label: "x"}})
	if got := ContextWith(context.Background(), sc); got != context.Background() {
		t.Fatal("ContextWith(nil) must return ctx unchanged")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on a bare ctx must be nil")
	}
	if _, ok := r.Export("s"); ok {
		t.Fatal("nil recorder exported a trace")
	}
	if r.Sessions() != nil {
		t.Fatal("nil recorder lists sessions")
	}
}

func TestSpanRecordingAndExport(t *testing.T) {
	r := NewTraceRecorder(tick())
	sc, endReq := r.StartRequest("s1", "POST /v1/sessions/{id}/step")
	if !sc.Tracing() {
		t.Fatal("live SpanCtx must report Tracing")
	}
	// Context round-trip.
	ctx := ContextWith(context.Background(), sc)
	if FromContext(ctx) != sc {
		t.Fatal("span context lost through context.Context")
	}

	end := sc.Span("des", "des.eval")
	end(map[string]any{"action": 5})
	sc.SimEval("eval n=5 epoch=0", []trace.Span{
		{Label: "potrf 0", Kind: "potrf", Node: 0, Unit: "gpu0", Start: 0, End: 1},
		{Label: "gen 0", Kind: "gen", Node: 1, Unit: "cpu", Start: 0, End: 0.5},
	})
	endReq()

	data, ok := r.Export("s1")
	if !ok {
		t.Fatal("no trace exported")
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["session"] != "s1" {
		t.Fatalf("otherData.session = %v", doc.OtherData["session"])
	}
	var sawRoot, sawEval, sawSimProc, sawSimTask bool
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "POST /v1/sessions/{id}/step" && ev.Ph == "X" && ev.PID == servicePID:
			sawRoot = true
		case ev.Name == "des.eval" && ev.Cat == "des":
			sawEval = true
			if ev.Args["action"] != float64(5) {
				t.Fatalf("des.eval args = %v", ev.Args)
			}
		case ev.Ph == "M" && ev.Name == "process_name" && ev.PID >= simPIDBase:
			sawSimProc = true
			if name, _ := ev.Args["name"].(string); !strings.HasPrefix(name, "sim: ") {
				t.Fatalf("sim process name = %v", ev.Args["name"])
			}
		case ev.Ph == "X" && ev.PID >= simPIDBase:
			sawSimTask = true
		}
	}
	if !sawRoot || !sawEval || !sawSimProc || !sawSimTask {
		t.Fatalf("export missing events: root=%t eval=%t simProc=%t simTask=%t",
			sawRoot, sawEval, sawSimProc, sawSimTask)
	}
	// Sim-time tracks must never land on the wall-clock pid.
	for _, ev := range doc.TraceEvents {
		if ev.PID != servicePID && ev.PID < simPIDBase {
			t.Fatalf("event %q on unexpected pid %d", ev.Name, ev.PID)
		}
	}
}

func TestExportDeterministic(t *testing.T) {
	r := NewTraceRecorder(tick())
	sc, endReq := r.StartRequest("s", "GET /")
	sc.Span("a", "one")(nil)
	sc.Span("a", "two")(nil)
	endReq()
	a, _ := r.Export("s")
	b, _ := r.Export("s")
	if string(a) != string(b) {
		t.Fatal("repeated Export of the same session differs")
	}
}

// exportDoc parses one Export of session s.
func exportDoc(t *testing.T, r *TraceRecorder, s string) (evs []trace.ChromeEvent, dropped float64) {
	t.Helper()
	data, ok := r.Export(s)
	if !ok {
		t.Fatalf("no export for session %q", s)
	}
	var doc struct {
		TraceEvents []trace.ChromeEvent `json:"traceEvents"`
		OtherData   map[string]any      `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	dropped, _ = doc.OtherData["droppedEvents"].(float64)
	return doc.TraceEvents, dropped
}

// TestEventCapAndDroppedAccounting: a request that alone fills the
// wall bound keeps its prefix; the next request evicts it whole, and
// droppedEvents counts every event refused or evicted.
func TestEventCapAndDroppedAccounting(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxWall = 8
	sc, endReq := r.StartRequest("s", "GET /") // 1 event at endReq
	for i := 0; i < 20; i++ {
		sc.Span("c", "spin")(nil)
	}
	endReq()
	// 8 recorded + the prepended service process_name metadata event.
	if evs, dropped := exportDoc(t, r, "s"); len(evs) != 9 || dropped != 13 {
		t.Fatalf("exported %d events, %v dropped; want 9 and 13", len(evs), dropped)
	}

	sc2, endReq2 := r.StartRequest("s", "GET /again")
	for i := 0; i < 3; i++ {
		sc2.Span("c", "spin")(nil)
	}
	endReq2()
	evs, dropped := exportDoc(t, r, "s")
	if len(evs) != 5 || dropped != 21 {
		t.Fatalf("after a second request: %d events, %v dropped; want 5 and 21", len(evs), dropped)
	}
	for _, ev := range evs[1:] {
		if ev.TID != sc2.track.tid {
			t.Fatalf("event %q on tid %d survived its track's eviction", ev.Name, ev.TID)
		}
	}
	// A span closing on the evicted track is dropped, not recorded.
	sc.Span("c", "late")(nil)
	if evs, dropped := exportDoc(t, r, "s"); len(evs) != 5 || dropped != 22 {
		t.Fatalf("a late span re-created its evicted track: %d events, %v dropped", len(evs), dropped)
	}
}

// simSpans returns n task spans over three units with repeated start
// times, so the conversion's (ts, tid, name) order has ties to break.
func simSpans(n int) []trace.Span {
	units := []string{"n1.gpu0", "n0.cpu1", "n0.cpu0"}
	spans := make([]trace.Span, n)
	for i := range spans {
		start := float64(i/4) * 0.5
		spans[i] = trace.Span{
			Label: fmt.Sprintf("t%d", (i*7)%n), Kind: "w", Node: i % 2,
			Unit: units[i%3], Flops: float64(i), Start: start, End: start + 0.25,
		}
	}
	return spans
}

// laneConversion is the full lane SimEval would record for spans on
// pid: a process_name event, then the spans' conversion.
func laneConversion(name string, spans []trace.Span, pid int) []trace.ChromeEvent {
	return append([]trace.ChromeEvent{{
		Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": "sim: " + name},
	}}, trace.ChromeEvents(spans, pid)...)
}

// TestSimEvalKeepsTruncatedConversion: each lane the store holds is a
// prefix of its evaluation's full conversion — whole when it fits the
// sim bound, cut at the bound when it alone exceeds it — older lanes
// are evicted whole to make room, and droppedEvents counts the rest.
func TestSimEvalKeepsTruncatedConversion(t *testing.T) {
	for _, bound := range []int{0, 1, 3, 10, 40, 53, 200} {
		r := NewTraceRecorder(tick())
		r.maxSim = bound
		sc, _ := r.StartRequest("s", "POST /step")
		var lanes [][]trace.ChromeEvent // full conversions, in order
		all := 0
		pid := simPIDBase
		for e, n := range []int{30, 0, 17} {
			name := fmt.Sprintf("eval %d", e)
			spans := simSpans(n)
			sc.SimEval(name, spans)
			if n == 0 {
				continue // an empty evaluation records nothing
			}
			lanes = append(lanes, laneConversion(name, spans, pid))
			all += len(lanes[len(lanes)-1])
			pid++
		}
		// The newest lanes that fit, each cut at the bound.
		var want []trace.ChromeEvent
		room := bound
		for i := len(lanes) - 1; i >= 0; i-- {
			keep := min(len(lanes[i]), bound)
			if keep == 0 || keep > room {
				break
			}
			want = append(lanes[i][:keep:keep], want...)
			room -= keep
		}
		var got []trace.ChromeEvent
		for _, ln := range r.lanes {
			got = append(got, ln.events...)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("bound %d: kept lanes differ from the newest truncated conversions:\ngot  %v\nwant %v",
				bound, got, want)
		}
		if r.sim != len(want) || r.dropped != all-len(want) {
			t.Fatalf("bound %d: %d held, %d dropped; want %d and %d", bound, r.sim, r.dropped, len(want), all-len(want))
		}
	}
}

// TestSimEventsHaveTheirOwnBudget: evaluations that overflow the sim
// bound evict older lanes only; the request spans recorded around
// them, the root span included, all stay.
func TestSimEventsHaveTheirOwnBudget(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxWall, r.maxSim = 8, 8
	sc, endReq := r.StartRequest("s", "POST /step")
	sc.SimEval("eval 0", simSpans(20)) // 1 + 3 units + 20 spans = 24 events
	sc.Span("journal", "journal.append")(nil)
	sc.SimEval("eval 1", simSpans(3)) // 1 + 3 units + 3 spans = 7 events
	sc.SimEval("eval 2", simSpans(1)) // 3 events, evicting eval 1
	endReq()
	evs, dropped := exportDoc(t, r, "s")
	var names []string
	simPIDs := map[int]int{}
	for _, ev := range evs {
		if ev.PID >= simPIDBase {
			simPIDs[ev.PID]++
		} else if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if len(names) != 2 || names[0] != "POST /step" || names[1] != "journal.append" {
		t.Fatalf("request spans around overflowing evaluations = %v, want [POST /step journal.append]", names)
	}
	if len(simPIDs) != 1 || simPIDs[simPIDBase+2] != 3 {
		t.Fatalf("sim events kept per pid = %v, want only eval 2's 3 events", simPIDs)
	}
	// eval 0 keeps 8 of 24, then both evals 0 and 1 are evicted whole.
	if dropped != 16+8+7 {
		t.Fatalf("droppedEvents = %v, want 31", dropped)
	}
}

// TestStoreBoundedUnderLoad: 2,000 traced requests, each with spans
// and evaluations, through one recorder with small bounds stay within
// them, keep the newest trace whole, and keep every retained sim pid
// unique and inside [simPIDBase, simPIDLimit) — also across the pid
// reuse that a small sim bound forces.
func TestStoreBoundedUnderLoad(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxWall, r.maxSim = 500, 2000
	offered := 0
	var last *SpanCtx
	for i := 0; i < 2000; i++ {
		sc, end := r.StartRequest(fmt.Sprintf("s%d", i%7), "POST /step")
		sc.Span("session", "session.step")(nil)
		n := 1 + i%5
		for e := 0; e < 1+i%3; e++ {
			sc.SimEval(fmt.Sprintf("eval %d.%d", i, e), simSpans(n))
			offered += 1 + min(n, 3) + n
		}
		end()
		offered += 2
		last = sc
		if r.wall > r.maxWall || r.sim > r.maxSim {
			t.Fatalf("request %d: %d wall and %d sim events held, bounds %d and %d",
				i, r.wall, r.sim, r.maxWall, r.maxSim)
		}
	}
	held := 0
	pids := map[int]bool{}
	for _, ln := range r.lanes {
		if ln.pid < simPIDBase || ln.pid >= simPIDLimit || pids[ln.pid] {
			t.Fatalf("retained lane on pid %d (duplicate: %t)", ln.pid, pids[ln.pid])
		}
		pids[ln.pid] = true
		held += len(ln.events)
	}
	for _, tr := range r.tracks {
		held += len(tr.events)
	}
	if held != r.wall+r.sim || held+r.dropped != offered {
		t.Fatalf("%d events held, %d dropped, %d offered; counters say %d held", held, r.dropped, offered, r.wall+r.sim)
	}
	if r.nextPID != simPIDLimit {
		t.Fatalf("sim pids never wrapped (next %d), so reuse went untested", r.nextPID)
	}
	evs, ok := r.TraceEvents(last.TraceContext().TraceID)
	if !ok {
		t.Fatal("the newest trace was evicted")
	}
	wall, sim := 0, 0
	for _, ev := range evs {
		if ev.PID == servicePID {
			wall++
		} else {
			sim++
		}
	}
	// 1999 % 3 == 1: two evaluations of 1999 % 5 + 1 == 5 spans, each
	// 1 + 3 units + 5 spans.
	if wall != 2 || sim != 2*9 {
		t.Fatalf("newest trace holds %d wall and %d sim events, want 2 and 18", wall, sim)
	}
}

// TestStoreConcurrentEvictions: requests on several goroutines evict
// each other's tracks and lanes, including lanes between SimEval's
// reservation and its fill; the counters still account for every
// event, and no evicted track or lane comes back.
func TestStoreConcurrentEvictions(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxWall, r.maxSim = 40, 60
	const workers, requests = 4, 300
	var offered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				sc, end := r.StartRequest(fmt.Sprintf("w%d", w), "POST /step")
				sc.SimEval("eval", simSpans(1+i%9))
				sc.Span("journal", "journal.append")(nil)
				end()
				offered.Add(int64(1 + min(1+i%9, 3) + 1 + i%9 + 2))
			}
		}()
	}
	wg.Wait()
	held := 0
	pids := map[int]bool{}
	for _, ln := range r.lanes {
		if ln.evicted || pids[ln.pid] {
			t.Fatalf("lane on pid %d retained twice or after eviction", ln.pid)
		}
		pids[ln.pid] = true
		held += len(ln.events)
	}
	for _, tr := range r.tracks {
		if tr.evicted {
			t.Fatal("an evicted track is still held")
		}
		held += len(tr.events)
	}
	if r.wall > r.maxWall || r.sim > r.maxSim || int64(held+r.dropped) != offered.Load() {
		t.Fatalf("%d held (%d wall, %d sim), %d dropped, %d offered", held, r.wall, r.sim, r.dropped, offered.Load())
	}
}

func TestSessionsSortedAndDistinctTracks(t *testing.T) {
	r := NewTraceRecorder(tick())
	_, endB := r.StartRequest("b", "GET /")
	scA1, endA := r.StartRequest("a", "GET /")
	scA2, endA2 := r.StartRequest("a", "GET /")
	endB()
	endA()
	endA2()
	ids := r.Sessions()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("Sessions() = %v", ids)
	}
	if scA1.track.tid == scA2.track.tid {
		t.Fatalf("two requests on one session share tid %d", scA2.track.tid)
	}
	if _, ok := r.Export("missing"); ok {
		t.Fatal("Export of an unknown session must report !ok")
	}
}

func TestTelemetryNilClockFreezesTime(t *testing.T) {
	tel := NewTelemetry(nil)
	t0 := tel.Now()
	if t0 != 0 || tel.Seconds(t0) != 0 {
		t.Fatal("nil clock must freeze time at zero")
	}
	var none *Telemetry
	if none.Now() != 0 || none.Seconds(5) != 0 {
		t.Fatal("nil Telemetry clock reads must be zero")
	}
}
