// Package events is phasetune's structured fleet event log: an
// append-only, bounded, nil-safe recorder for the discrete facts that
// explain a fleet's behavior after the fact — session created /
// promoted / fenced, replication degraded / recovered, shard down /
// up, supervisor promotion batches. Metrics
// answer "how much"; traces answer "where did the time go"; the event
// log answers "what happened, in what order" — the causal chain of a
// failover without diffing process logs.
//
// Events are kept in a bounded in-memory ring (served at GET
// /v1/events and fleet-merged by the shard router) and, when a path is
// configured, appended as JSON Lines to an fsync'd file so the record
// survives the process. Every method is nil-receiver-safe: a nil *Log
// is a no-op, so instrumented code pays one pointer check when the
// event log is disabled.
package events

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"phasetune/internal/fsutil"
)

// Event is one discrete fleet fact.
type Event struct {
	// TS is the recorder clock's reading in nanoseconds (wall clock in
	// services, a fake in tests). Merged fleet logs sort by it.
	TS int64 `json:"ts"`
	// Seq orders events emitted by one process at the same clock
	// reading; it restarts at 1 per process.
	Seq uint64 `json:"seq"`
	// Type names the fact, dot-separated subsystem first: e.g.
	// "shard.down", "session.promoted", "repl.degraded". METRICS.md
	// lists every type.
	Type string `json:"type"`
	// Shard labels the emitting process in fleet-merged views; the
	// emitting process leaves it empty and the merger stamps it.
	Shard string `json:"shard,omitempty"`
	// Session is the session id the fact concerns, when there is one.
	Session string `json:"session,omitempty"`
	// Trace is the fleet trace id active when the fact was recorded,
	// when there is one — it links the event to the distributed trace
	// of the request (or supervisor run) that caused it.
	Trace string `json:"trace,omitempty"`
	// Fields carries type-specific detail (generation numbers, error
	// strings, batch sizes).
	Fields map[string]any `json:"fields,omitempty"`
}

// defaultMaxEvents bounds the in-memory ring; past it the oldest
// events are evicted (the JSONL file, when configured, keeps them).
const defaultMaxEvents = 4096

// Log is an append-only event recorder. All methods are safe for
// concurrent use and nil-receiver-safe.
type Log struct {
	now func() int64

	mu      sync.Mutex
	events  []Event
	max     int
	seq     uint64
	evicted uint64
	f       *os.File
	werr    error // first write error; recorded once, then file writes stop
}

// New builds an in-memory event log around an injected nanosecond
// clock. A nil clock freezes timestamps at zero.
func New(nowNanos func() int64) *Log {
	if nowNanos == nil {
		nowNanos = func() int64 { return 0 }
	}
	return &Log{now: nowNanos, max: defaultMaxEvents}
}

// NewFile builds the event log a server process keeps. An empty path
// gives the in-memory log New builds. Any other path also appends each
// event as one JSON line to that file, fsync'd per append (events are
// rare — failovers, promotions, fences — so durability is cheap). The
// file's directory is synced once at creation so the new file itself
// survives a crash.
func NewFile(path string, nowNanos func() int64) (*Log, error) {
	l := New(nowNanos)
	if path == "" {
		return l, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("events file: %w", err)
	}
	if err := fsutil.SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("events file: %w", err)
	}
	l.f = f
	return l, nil
}

// Emit records one event. typ is required; session and trace are
// optional ("" omits them); fields may be nil. Nil-safe: a nil log
// records nothing and allocates nothing.
func (l *Log) Emit(typ, session, trace string, fields map[string]any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev := Event{TS: l.now(), Seq: l.seq, Type: typ, Session: session, Trace: trace, Fields: fields}
	if len(l.events) >= l.max {
		drop := len(l.events) - l.max + 1
		l.events = append(l.events[:0], l.events[drop:]...)
		l.evicted += uint64(drop)
	}
	l.events = append(l.events, ev)
	if l.f != nil && l.werr == nil {
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			if _, err := l.f.Write(b); err != nil {
				l.werr = err
			} else if err := l.f.Sync(); err != nil {
				l.werr = err
			}
		}
	}
	l.mu.Unlock()
}

// Events returns a snapshot of the in-memory ring, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Evicted reports how many events the bounded ring has dropped.
func (l *Log) Evicted() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// Close closes the JSONL file, if any, returning the first write or
// sync error encountered over the log's lifetime.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.werr
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}

// Merge combines event snapshots from several processes into one
// fleet view: each process's events are stamped with its shard label,
// and the result is ordered by (TS, shard, seq) so concurrent
// processes interleave deterministically. Input slices are not
// modified.
func Merge(byShard map[string][]Event) []Event {
	shards := make([]string, 0, len(byShard))
	total := 0
	for s, evs := range byShard {
		shards = append(shards, s)
		total += len(evs)
	}
	sort.Strings(shards)
	out := make([]Event, 0, total)
	for _, s := range shards {
		for _, ev := range byShard[s] {
			ev.Shard = s
			out = append(out, ev)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
