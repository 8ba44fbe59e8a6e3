// Package obsv is phasetune's stdlib-only telemetry layer: a metrics
// registry with Prometheus text-format exposition and a span recorder
// that exports Chrome trace-event JSON (Perfetto-loadable).
//
// The package is deliberately clockless. Every wall-clock timestamp
// comes from a nanosecond clock injected at construction (NewTelemetry)
// — the only wall-clock read in the module lives in
// internal/obsv/wallclock, which the determinism analyzer forbids
// simulation packages from importing. Simulation time never passes
// through this clock: per-task sim-time spans are recorded by
// internal/trace inside the simulation and attached to a trace as their
// own process tracks (see SpanCtx.SimEval), so wall time and sim time
// cannot be confused in an exported trace.
//
// Every instrument method is nil-receiver-safe: a nil *Counter,
// *Gauge, *Histogram, *SpanCtx or *TraceRecorder is a no-op, so
// instrumented code pays one pointer check when telemetry is disabled.
package obsv

import "phasetune/internal/obsv/events"

// Telemetry bundles the registry, the trace recorder and the injected
// clock, plus the pre-registered instruments the engine and harness
// record into. Construct it with NewTelemetry (or
// wallclock.NewTelemetry at the service layer) and hand it to
// engine.Options.Telemetry / harness.FaultyOptions.Telemetry; a nil
// *Telemetry disables all telemetry.
type Telemetry struct {
	Reg   *Registry
	Trace *TraceRecorder
	now   func() int64

	// Events is the process's structured event log (session lifecycle,
	// replication state changes, fencing). It is nil unless the
	// service layer attaches one — a nil log is a no-op, like every
	// other disabled instrument.
	Events *events.Log

	// Engine instruments.
	PoolWait            *Histogram // seconds waiting for a pool slot
	EvalLatency         *Histogram // seconds running one DES evaluation
	CacheHits           *Counter
	CacheMisses         *Counter
	CacheShares         *Counter   // hits served by an in-flight singleflight
	PeerHits            *Counter   // local misses answered by a shard peer's cache
	PeerMisses          *Counter   // peer lookups that found nothing (computed locally)
	PeerShares          *Counter   // completed values served to shard peers via /v1/cache/peek
	JournalAppend       *Histogram // seconds per fsync'd journal append
	RecoverySessions    *Counter
	RecoveryReplayedOps *Counter

	// Replication instruments.
	ReplicaAckLatency *Histogram // seconds per synchronous replica ship round-trip
	ReplicaResync     *Histogram // seconds per full-history replica resync

	// Harness instruments.
	IterMakespan *Histogram // simulated seconds per tuning iteration
	Regret       *Gauge     // running cumulative regret, simulated seconds
}

// NewTelemetry builds a telemetry bundle around an injected nanosecond
// clock (wall clock at the service layer, a fake in tests). A nil clock
// freezes all timestamps at zero — metrics still count, histograms all
// observe zero durations.
func NewTelemetry(nowNanos func() int64) *Telemetry {
	if nowNanos == nil {
		nowNanos = func() int64 { return 0 }
	}
	reg := NewRegistry()
	return &Telemetry{
		Reg:   reg,
		Trace: NewTraceRecorder(nowNanos),
		now:   nowNanos,

		PoolWait: reg.Histogram("phasetune_pool_admission_wait_seconds",
			"wall-clock seconds callers wait for an evaluation pool slot", DurationBuckets, nil),
		EvalLatency: reg.Histogram("phasetune_eval_latency_seconds",
			"wall-clock seconds one DES evaluation holds a pool slot", DurationBuckets, nil),
		CacheHits: reg.Counter("phasetune_cache_requests_hits_total",
			"evaluation-cache requests served by an existing entry", nil),
		CacheMisses: reg.Counter("phasetune_cache_requests_misses_total",
			"evaluation-cache requests that triggered a computation", nil),
		CacheShares: reg.Counter("phasetune_cache_singleflight_shares_total",
			"cache hits that joined an in-flight computation instead of a completed value", nil),
		PeerHits: reg.Counter("phasetune_peer_cache_hits_total",
			"local cache misses answered by a shard peer's completed evaluation", nil),
		PeerMisses: reg.Counter("phasetune_peer_cache_misses_total",
			"peer lookups that found nothing, falling back to local computation", nil),
		PeerShares: reg.Counter("phasetune_peer_cache_shares_total",
			"completed evaluations served to shard peers via /v1/cache/peek", nil),
		JournalAppend: reg.Histogram("phasetune_journal_append_seconds",
			"wall-clock seconds per journal append including the fsync", DurationBuckets, nil),
		RecoverySessions: reg.Counter("phasetune_recovery_sessions_total",
			"sessions restored from their write-ahead journals", nil),
		RecoveryReplayedOps: reg.Counter("phasetune_recovery_replayed_ops_total",
			"journaled operations replayed during recovery", nil),

		ReplicaAckLatency: reg.Histogram("phasetune_replica_ack_seconds",
			"wall-clock seconds per synchronous replica journal ship, send to follower ack", DurationBuckets, nil),
		ReplicaResync: reg.Histogram("phasetune_replica_resync_seconds",
			"wall-clock seconds per full-history replica resync after a gap or rewire", DurationBuckets, nil),

		IterMakespan: reg.Histogram("phasetune_harness_iteration_makespan_seconds",
			"simulated seconds per online-tuning iteration (includes retries)", MakespanBuckets, nil),
		Regret: reg.Gauge("phasetune_harness_regret_seconds",
			"running cumulative regret against the best makespan seen, simulated seconds", nil),
	}
}

// Now returns the injected clock's reading in nanoseconds (0 on a nil
// receiver).
func (t *Telemetry) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// Seconds converts a start timestamp from Now into elapsed seconds.
func (t *Telemetry) Seconds(startNanos int64) float64 {
	if t == nil {
		return 0
	}
	return float64(t.now()-startNanos) / 1e9
}

// ReplicaLag returns the per-session replication-lag gauge: journaled
// operations the session's follower has not yet acknowledged (zero
// while synced, growing while the follower is unreachable and the
// session runs in degraded single-copy mode). Nil on a nil receiver.
func (t *Telemetry) ReplicaLag(session string) *Gauge {
	if t == nil {
		return nil
	}
	return t.Reg.Gauge("phasetune_replica_lag_ops",
		"journaled operations not yet acknowledged by the session's replication follower",
		Labels{"session": session})
}

// Emit records one structured event on the attached event log (a
// no-op when the telemetry bundle or its log is nil).
func (t *Telemetry) Emit(typ, session, trace string, fields map[string]any) {
	if t == nil {
		return
	}
	t.Events.Emit(typ, session, trace, fields)
}
