package events

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func fakeNanos() func() int64 {
	var n int64
	return func() int64 { return atomic.AddInt64(&n, 1e6) }
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Emit("shard.down", "s1", "abc", map[string]any{"reason": "probe"})
	if got := l.Events(); got != nil {
		t.Fatalf("nil log returned events: %v", got)
	}
	if l.Evicted() != 0 {
		t.Fatal("nil log reported evictions")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestEmitOrderAndSnapshot(t *testing.T) {
	l := New(fakeNanos())
	l.Emit("session.created", "s1", "", nil)
	l.Emit("repl.degraded", "s1", "t1", map[string]any{"err": "dial"})
	l.Emit("repl.recovered", "s1", "t2", nil)
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, want := range []string{"session.created", "repl.degraded", "repl.recovered"} {
		if evs[i].Type != want {
			t.Fatalf("event %d type %q, want %q", i, evs[i].Type, want)
		}
		if evs[i].Seq != uint64(i+1) {
			t.Fatalf("event %d seq %d, want %d", i, evs[i].Seq, i+1)
		}
	}
	if evs[0].TS >= evs[1].TS || evs[1].TS >= evs[2].TS {
		t.Fatalf("timestamps not increasing: %v", evs)
	}
	if evs[1].Trace != "t1" || evs[1].Fields["err"] != "dial" {
		t.Fatalf("event detail lost: %+v", evs[1])
	}
	// Snapshot is a copy: mutating it does not affect the log.
	evs[0].Type = "mutated"
	if l.Events()[0].Type != "session.created" {
		t.Fatal("snapshot aliases internal buffer")
	}
}

func TestBoundedRingEvicts(t *testing.T) {
	l := New(fakeNanos())
	l.max = 4
	for i := 0; i < 10; i++ {
		l.Emit("tick", "", "", nil)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	if l.Evicted() != 6 {
		t.Fatalf("evicted %d, want 6", l.Evicted())
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("ring kept wrong window: seqs %d..%d", evs[0].Seq, evs[3].Seq)
	}
}

func TestFileAppendJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	l, err := NewFile(path, fakeNanos())
	if err != nil {
		t.Fatal(err)
	}
	l.Emit("shard.down", "", "", map[string]any{"shard": "w1"})
	l.Emit("session.promoted", "s1", "tr", map[string]any{"gen": 2})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []Event
	scan := bufio.NewScanner(f)
	for scan.Scan() {
		var ev Event
		if err := json.Unmarshal(scan.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", scan.Text(), err)
		}
		lines = append(lines, ev)
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("file holds %d lines, want 2", len(lines))
	}
	if lines[1].Type != "session.promoted" || lines[1].Session != "s1" || lines[1].Trace != "tr" {
		t.Fatalf("line 2: %+v", lines[1])
	}
	if g, ok := lines[1].Fields["gen"].(float64); !ok || g != 2 {
		t.Fatalf("gen field: %+v", lines[1].Fields)
	}

	// An empty path keeps the log in memory only.
	mem, err := NewFile("", fakeNanos())
	if err != nil {
		t.Fatal(err)
	}
	mem.Emit("shard.up", "", "", nil)
	if evs := mem.Events(); len(evs) != 1 || mem.f != nil {
		t.Fatalf("in-memory log: %d events, file %v", len(evs), mem.f)
	}
	if err := mem.Close(); err != nil {
		t.Fatalf("close in-memory log: %v", err)
	}
}

func TestConcurrentEmit(t *testing.T) {
	l := New(fakeNanos())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Emit("tick", "", "", nil)
			}
		}()
	}
	wg.Wait()
	if got := len(l.Events()); got != 400 {
		t.Fatalf("got %d events, want 400", got)
	}
}

func TestMergeOrdersAndStamps(t *testing.T) {
	byShard := map[string][]Event{
		"w2":     {{TS: 20, Seq: 1, Type: "shard.up"}, {TS: 40, Seq: 2, Type: "repl.degraded"}},
		"w1":     {{TS: 10, Seq: 1, Type: "session.created"}, {TS: 20, Seq: 2, Type: "session.promoted"}},
		"router": {{TS: 20, Seq: 1, Type: "shard.down"}},
	}
	merged := Merge(byShard)
	if len(merged) != 5 {
		t.Fatalf("merged %d, want 5", len(merged))
	}
	wantOrder := []struct{ shard, typ string }{
		{"w1", "session.created"},
		{"router", "shard.down"},
		{"w1", "session.promoted"},
		{"w2", "shard.up"},
		{"w2", "repl.degraded"},
	}
	for i, w := range wantOrder {
		if merged[i].Shard != w.shard || merged[i].Type != w.typ {
			t.Fatalf("position %d: got %s/%s, want %s/%s",
				i, merged[i].Shard, merged[i].Type, w.shard, w.typ)
		}
	}
	// Inputs keep their unstamped shard field.
	if byShard["w1"][0].Shard != "" {
		t.Fatal("Merge mutated its input")
	}
}
