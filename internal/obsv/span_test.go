package obsv

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
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

func TestEventCapAndDroppedAccounting(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxPer = 8
	sc, endReq := r.StartRequest("s", "GET /") // 1 event at endReq
	for i := 0; i < 20; i++ {
		sc.Span("c", "spin")(nil)
	}
	endReq()
	data, ok := r.Export("s")
	if !ok {
		t.Fatal("no export")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]any    `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	// 8 recorded + the prepended service process_name metadata event.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("exported %d events, want 9", len(doc.TraceEvents))
	}
	if doc.OtherData["droppedEvents"] != float64(13) {
		t.Fatalf("droppedEvents = %v, want 13", doc.OtherData["droppedEvents"])
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

// TestSimEvalKeepsTruncatedConversion: a session's sim events are
// exactly its evaluations' full conversions, concatenated and cut at the
// budget, and droppedEvents counts the rest.
func TestSimEvalKeepsTruncatedConversion(t *testing.T) {
	for _, budget := range []int{0, 1, 3, 10, 40, 53, 200} {
		r := NewTraceRecorder(tick())
		r.maxPer = budget
		sc, _ := r.StartRequest("s", "POST /step")
		var want []trace.ChromeEvent
		pid := simPIDBase
		for e, n := range []int{30, 0, 17} {
			spans := simSpans(n)
			sc.SimEval(fmt.Sprintf("eval %d", e), spans)
			if n == 0 {
				continue // an empty evaluation records nothing
			}
			want = append(want, trace.ChromeEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": fmt.Sprintf("sim: eval %d", e)},
			})
			want = append(want, trace.ChromeEvents(spans, pid)...)
			pid++
		}
		all := len(want)
		want = want[:min(budget, all)]
		st := r.sessions["s"]
		if len(st.events) != len(want) || (len(want) > 0 && !reflect.DeepEqual(st.events, want)) {
			t.Fatalf("budget %d: kept events differ from truncated conversion:\ngot  %v\nwant %v",
				budget, st.events, want)
		}
		if st.dropped != all-len(want) {
			t.Fatalf("budget %d: dropped %d, want %d", budget, st.dropped, all-len(want))
		}
	}
}

// TestSimEventsHaveTheirOwnBudget: an evaluation that overflows the sim
// budget leaves the request spans recorded after it, the root span
// included, untouched.
func TestSimEventsHaveTheirOwnBudget(t *testing.T) {
	r := NewTraceRecorder(tick())
	r.maxPer = 8
	sc, endReq := r.StartRequest("s", "POST /step")
	sc.SimEval("eval", simSpans(20)) // 1 + 3 units + 20 spans = 24 events
	sc.Span("journal", "journal.append")(nil)
	endReq()
	data, ok := r.Export("s")
	if !ok {
		t.Fatal("no export")
	}
	var doc struct {
		TraceEvents []trace.ChromeEvent `json:"traceEvents"`
		OtherData   map[string]any      `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	sim := 0
	for _, ev := range doc.TraceEvents {
		if ev.PID >= simPIDBase {
			sim++
		} else if ev.Ph == "X" {
			names = append(names, ev.Name)
		}
	}
	if len(names) != 2 || names[0] != "POST /step" || names[1] != "journal.append" {
		t.Fatalf("request spans after an overflowing evaluation = %v, want [POST /step journal.append]", names)
	}
	if sim != 8 {
		t.Fatalf("%d sim events kept, want the budget of 8", sim)
	}
	if doc.OtherData["droppedEvents"] != float64(16) {
		t.Fatalf("droppedEvents = %v, want 16", doc.OtherData["droppedEvents"])
	}
}

func TestSessionsSortedAndDistinctTracks(t *testing.T) {
	r := NewTraceRecorder(tick())
	_, endB := r.StartRequest("b", "GET /")
	_, endA := r.StartRequest("a", "GET /")
	scA2, endA2 := r.StartRequest("a", "GET /")
	endB()
	endA()
	endA2()
	ids := r.Sessions()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("Sessions() = %v", ids)
	}
	if scA2.tid != 1 {
		t.Fatalf("second request on a session should get tid 1, got %d", scA2.tid)
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
