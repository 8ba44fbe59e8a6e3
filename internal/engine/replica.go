package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"phasetune/internal/fsutil"
	"phasetune/internal/obsv"
)

// Replication: every fsync'd journal record of a session is shipped,
// synchronously and acked-before-visible, in one batch per commit
// group (see commit.go), to a follower node so that losing the owner
// — process, disk and all — loses no committed operation. The
// follower stores the records verbatim in a replica journal; promotion
// moves that file into the live journal directory and runs the
// ordinary Recover replay path over it, so a promoted session is
// bit-identical to one that was never interrupted.
//
// Fencing: each session carries a generation (see journal.go). The
// owner stamps its generation on every shipped record, and the replica
// store rejects appends from a generation older than what it has seen
// — or, decisively, older than a *live* session under the same id,
// which is what a promoted node holds. A deposed owner that comes back
// from a partition therefore cannot ack another commit: its next ship
// is refused, the session fails closed on the zombie, and split-brain
// is structurally impossible as long as acked-before-visible holds.
//
// Degraded mode: if the follower is unreachable (not refusing — the
// transport failed), the owner keeps serving and marks the session's
// replication lagging rather than failing writes; the next successful
// ship is a full resync. This trades a window of single-copy
// durability for availability when the *follower* is the failed node.
// The supervisor only promotes from replica data that exists, so the
// window is visible (replica status lags) rather than silent.

// ReplicaPlanner maps a session id to the base URL of its follower
// ("" and false when the fleet has no distinct follower, e.g. a single
// member). Installed by the serving binary, which knows the ring; the
// engine itself stays ignorant of fleet topology. Implementations must
// be safe for concurrent use.
type ReplicaPlanner func(sessionID string) (addr string, ok bool)

// SetReplicaPlanner installs (or, with nil, clears) the follower
// planner and rewires every session so its next commit re-plans
// against the new topology.
func (e *Engine) SetReplicaPlanner(fn ReplicaPlanner) {
	e.replPlanner.Store(&fn)
	e.RewireReplicas()
}

// RewireReplicas drops every session's cached follower assignment; the
// next commit of each session consults the planner afresh and performs
// a full resync to whatever follower it names. Called after fleet
// membership changes.
func (e *Engine) RewireReplicas() {
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	for _, s := range sessions {
		s.mu.Lock()
		s.repl = nil
		s.mu.Unlock()
	}
}

// replicator is one session's replication state. Guarded by the
// session mutex.
type replicator struct {
	addr string // follower base URL; "" means the planner found none
	// synced reports that the follower holds the full history through
	// the last acked append; false forces a full resync (create record
	// plus the complete op history) on the next ship.
	synced bool
	// lagging marks degraded mode: the last ship failed in transport,
	// the local commit was acked anyway, and durability is single-copy
	// until a ship succeeds again.
	lagging bool
	// lagOps counts commits acked locally but not by the follower — the
	// session's replication lag, exported as a per-session gauge. Zero
	// while synced.
	lagOps int
}

// replicate ships recs, the commit group the session's journal just
// wrote, to the session's follower: as one batch while the follower is
// in sync, or after the whole history read back from the journal file
// when it is not (a resync). Called under the session mutex, after the
// local fsync succeeded — the caller's response is not sent until this
// returns, so an acked operation is on two disks (or the session is
// explicitly lagging). A refused ship (stale generation) fails the
// session closed: the refusal proves a newer generation owns the
// session elsewhere, and this node must stop acking.
func (e *Engine) replicate(ctx context.Context, s *Session, recs []journalRecord) error {
	if s.jl == nil {
		return nil
	}
	if s.repl == nil {
		p := e.replPlanner.Load()
		if p == nil || *p == nil {
			return nil
		}
		addr, ok := (*p)(s.id)
		if !ok {
			// Remember the no-follower answer so a single-member fleet
			// does not consult the planner on every commit; RewireReplicas
			// clears it when topology changes.
			s.repl = &replicator{}
			return nil
		}
		s.repl = &replicator{addr: addr}
	}
	if s.repl.addr == "" {
		return nil
	}

	sc := obsv.FromContext(ctx)
	// The local commit is already durable, so the ship must not die
	// with the request: an evaluation that ran past its deadline, or a
	// caller that hung up, would otherwise fail it at once and leave
	// the session single-copy while its follower is up. The replica
	// client's timeout (replicaShipTimeout) bounds it alone; the
	// detached context keeps the trace span.
	ctx = context.WithoutCancel(ctx)
	// A failed read of the history counts as a failed ship: the local
	// commit is already durable, so the session degrades to lagging.
	ship := func(resync bool) error {
		batch := recs
		if resync {
			var err error
			if batch, err = s.jl.history(s.cfg); err != nil {
				return err
			}
		}
		return e.shipSpan(ctx, sc, s.repl.addr, s.id, batch)
	}
	resync := !s.repl.synced
	start := e.tel.Now()
	err := ship(resync)
	if errors.Is(err, ErrReplicaGap) && !resync {
		// The follower lost state (restart, wipe); resync the full
		// history once and retry.
		resync = true
		err = ship(resync)
	}
	switch {
	case err == nil:
		if e.tel != nil {
			if resync {
				e.tel.ReplicaResync.Observe(e.tel.Seconds(start))
			} else {
				e.tel.ReplicaAckLatency.Observe(e.tel.Seconds(start))
			}
		}
		if s.repl.lagging {
			e.tel.ReplicaLag(s.id).Set(0)
			s.repl.lagOps = 0
			e.tel.Emit("repl.recovered", s.id, sc.TraceContext().TraceID,
				map[string]any{"follower": s.repl.addr})
		}
		s.repl.synced = true
		s.repl.lagging = false
		e.replShips.Inc()
		return nil
	case errors.Is(err, ErrStaleGeneration):
		// A newer generation of this session is live elsewhere: this
		// node was deposed while partitioned. Fail closed immediately —
		// acking even one more commit here would fork history.
		s.broken = true
		e.replFenced.Inc()
		e.tel.Emit("session.fenced", s.id, sc.TraceContext().TraceID,
			map[string]any{"gen": s.jl.gen, "reason": "stale generation: a newer generation is live elsewhere"})
		return fmt.Errorf("engine: session %s fenced out (a newer generation is live elsewhere): %w", s.id, err)
	case errors.Is(err, ErrReplicaGap):
		// A gap that survives a full resync is a deliberate refusal, not
		// lost state: the follower is mid-promotion of this very session.
		// Treating it as transport (ack locally, lag) would let this
		// commit vanish from the promoted timeline — fail closed instead.
		s.broken = true
		e.replFenced.Inc()
		e.tel.Emit("session.fenced", s.id, sc.TraceContext().TraceID,
			map[string]any{"gen": s.jl.gen, "reason": "follower is promoting this session"})
		return fmt.Errorf("engine: session %s fenced out (follower is promoting it): %w", s.id, err)
	default:
		// Transport-level failure: the follower is down or unreachable,
		// not refusing. Stay available, mark the lag, resync when it
		// returns.
		if !s.repl.lagging {
			e.tel.Emit("repl.degraded", s.id, sc.TraceContext().TraceID,
				map[string]any{"follower": s.repl.addr, "err": err.Error()})
		}
		s.repl.synced = false
		s.repl.lagging = true
		s.repl.lagOps++
		e.tel.ReplicaLag(s.id).Set(float64(s.repl.lagOps))
		e.replDegraded.Inc()
		return nil
	}
}

// shipSpan wraps one ship in a cross-process hop span: the follower
// receives the hop's child span id in the X-Phasetune-Trace header and
// records it as its root span's parent. Untraced requests (nil sc) pay
// one pointer check and send no header.
func (e *Engine) shipSpan(ctx context.Context, sc *obsv.SpanCtx, addr, id string, recs []journalRecord) error {
	tc, end := sc.SpanLink("repl", "replica.ship")
	err := e.ship(ctx, tc, addr, id, recs)
	if sc != nil {
		end(map[string]any{"follower": addr, "records": len(recs), "ok": err == nil})
	} else {
		end(nil)
	}
	return err
}

// ship POSTs records as ndjson to the follower's replica-append
// endpoint, carrying tc in the X-Phasetune-Trace header when the hop
// is traced. Refusals (stale generation, sequence gap) come back as
// typed errors; anything else is a transport failure.
func (e *Engine) ship(ctx context.Context, tc obsv.TraceContext, addr, id string, recs []journalRecord) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("engine: encode replica batch: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		addr+"/v1/replica/"+id+"/append", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if h := tc.Header(); h != "" {
		req.Header.Set(obsv.TraceHeader, h)
	}
	resp, err := e.replClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusForbidden:
		return fmt.Errorf("%w: follower said %s", ErrStaleGeneration, strings.TrimSpace(string(body)))
	case http.StatusConflict:
		return fmt.Errorf("%w: follower said %s", ErrReplicaGap, strings.TrimSpace(string(body)))
	default:
		return fmt.Errorf("engine: replica append to %s: status %d: %s",
			addr, resp.StatusCode, strings.TrimSpace(string(body)))
	}
}

// Typed replica-append refusals, mapped to HTTP 403/409 by the server
// and back again by ship.
var (
	// ErrStaleGeneration refuses records from a generation older than
	// the session's — the shipping owner has been deposed.
	ErrStaleGeneration = errors.New("engine: replica append from a stale generation")
	// ErrReplicaGap refuses records that do not extend the replica's
	// sequence contiguously; the owner reacts with a full resync.
	ErrReplicaGap = errors.New("engine: replica append out of sequence")
	// ErrNoReplica reports a promotion request for a session this node
	// holds no replica of.
	ErrNoReplica = errors.New("engine: no replica journal for session")
)

// replicaStore holds the replica journals this node keeps on behalf of
// sessions owned elsewhere, under <journalDir>/replica/. One file per
// session, written by appendRecords like the owner's journal: every
// batch fsync'd before it is acked — the ack is the owner's durability
// guarantee — and the file closed again.
type replicaStore struct {
	dir string
	mu  sync.Mutex
	// sessions holds each replica's sequence and generation high-water
	// marks; no file stays open. An id without an entry (a restarted
	// follower, say) answers a non-create batch with a gap, which
	// triggers a full resync from the owner.
	sessions map[string]*replicaState
	// promoting marks ids mid-promotion: appends are refused (as a gap)
	// while the replica file is being installed as a live journal, so a
	// deposed owner's resync cannot recreate replica state that the
	// promotion would silently orphan.
	promoting map[string]bool
}

type replicaState struct {
	// mu serializes writes to this session's replica file, so the
	// store-wide lock is never held across an fsync: appends to
	// different sessions sync in parallel, and a promotion only waits
	// out the one in-flight append that touches its own file.
	mu  sync.Mutex
	seq int64
	gen uint64
}

func newReplicaStore(journalDir string) *replicaStore {
	return &replicaStore{
		dir:       filepath.Join(journalDir, "replica"),
		sessions:  map[string]*replicaState{},
		promoting: map[string]bool{},
	}
}

// ReplicaSession is one replica journal's status.
type ReplicaSession struct {
	ID  string `json:"id"`
	Seq int64  `json:"seq"`
	Gen uint64 `json:"gen"`
}

// AppendReplica stores a batch of journal records shipped by a
// session's owner. A leading create record resets the replica file (a
// full resync); every other record must extend the sequence
// contiguously and carry a generation no older than both the replica's
// high-water mark and any live session under the same id — the live
// check is the fence that stops a deposed owner from acking through
// its old follower after that follower was promoted. The batch is
// written with a single fsync before the ack.
func (e *Engine) AppendReplica(ctx context.Context, id string, recs []journalRecord) (int64, error) {
	if e.replicas == nil {
		return 0, fmt.Errorf("engine: replication needs a journal directory")
	}
	if err := ValidateSessionID(id); err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, fmt.Errorf("engine: empty replica batch for %s", id)
	}
	var batchGen uint64
	for _, rec := range recs {
		if rec.Gen > batchGen {
			batchGen = rec.Gen
		}
	}

	rs := e.replicas
	rs.mu.Lock()
	// The fence, checked under the store lock so it is ordered against
	// PromoteReplica: a live local session under this id means this
	// node owns (or was promoted to own) the session, and records from
	// an older generation are a deposed owner still trying to commit.
	if s, ok := e.Session(id); ok {
		if live := s.generation(); live > batchGen {
			rs.mu.Unlock()
			e.replRejects.Inc()
			e.tel.Emit("repl.fenced", id, obsv.FromContext(ctx).TraceContext().TraceID,
				map[string]any{"live_gen": live, "batch_gen": batchGen, "reason": "session live here"})
			return 0, fmt.Errorf("%w: session %s is live here at generation %d, batch carries %d",
				ErrStaleGeneration, id, live, batchGen)
		}
	}
	if rs.promoting[id] {
		rs.mu.Unlock()
		e.replRejects.Inc()
		return 0, fmt.Errorf("%w: replica of %s is being promoted", ErrReplicaGap, id)
	}
	st := rs.sessions[id]

	if st != nil && batchGen < st.gen {
		rs.mu.Unlock()
		e.replRejects.Inc()
		e.tel.Emit("repl.fenced", id, obsv.FromContext(ctx).TraceContext().TraceID,
			map[string]any{"live_gen": st.gen, "batch_gen": batchGen, "reason": "replica has seen a newer generation"})
		return 0, fmt.Errorf("%w: replica of %s has seen generation %d, batch carries %d",
			ErrStaleGeneration, id, st.gen, batchGen)
	}

	if st == nil {
		if recs[0].T != "create" {
			// No state (fresh process or never synced): demand a full
			// resync rather than guessing at the file's tail.
			rs.mu.Unlock()
			return 0, fmt.Errorf("%w: no replica state for %s; resync from create", ErrReplicaGap, id)
		}
		st = &replicaState{}
		rs.sessions[id] = st
	}

	// Write and fsync under the session's own lock only: the store lock
	// is released first so appends to other sessions (and promotions of
	// them) never queue behind this file's sync.
	st.mu.Lock()
	rs.mu.Unlock()
	defer st.mu.Unlock()

	seq, gen := st.seq, st.gen
	for i, rec := range recs {
		if rec.T == "create" {
			// Full resync: the owner resends history from the top, and
			// appendRecords truncates whatever this replica held — the
			// owner's journal is the authority on content, the replica
			// only guards gen and seq.
			if i != 0 {
				return 0, fmt.Errorf("engine: replica batch for %s: create record not first", id)
			}
			seq = 0
		} else {
			if rec.Seq != seq+1 {
				e.replRejects.Inc()
				return 0, fmt.Errorf("%w: replica of %s at seq %d, record carries %d",
					ErrReplicaGap, id, seq, rec.Seq)
			}
			seq = rec.Seq
		}
		if rec.Gen > gen {
			gen = rec.Gen
		}
	}
	//lint:allow lockorder the per-file lock exists to order this file's write+fsync; store-wide lock is already released
	if err := appendRecords(rs.dir, id, recs); err != nil {
		return 0, fmt.Errorf("engine: replica %s: %w", id, err)
	}
	st.seq, st.gen = seq, gen
	e.replAccepts.Inc()
	return st.seq, nil
}

// ReplicaStatus lists the replica journals this node holds, in stable
// id order.
func (e *Engine) ReplicaStatus() []ReplicaSession {
	if e.replicas == nil {
		return nil
	}
	rs := e.replicas
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]ReplicaSession, 0, len(rs.sessions))
	for id, st := range rs.sessions {
		out = append(out, ReplicaSession{ID: id, Seq: st.seq, Gen: st.gen})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// PromotedSession reports one session taken over via PromoteReplica.
type PromotedSession struct {
	ID         string `json:"id"`
	Iterations int    `json:"iterations"`
	Epoch      int    `json:"epoch"`
	Gen        uint64 `json:"gen"`
}

// PromoteReplica turns a replica journal this node holds into a live
// session: the replica file moves into the journal directory, the
// ordinary recovery replay reconstructs the session bit-identically,
// and a generation record at max(minGen, seen+1) is journaled so every
// subsequent commit is fenced above the deposed owner. Idempotent: a
// repeated promotion of an already-live session at or above minGen
// reports the live state. ctx only carries the caller's trace span
// (the promotion itself is local and must run to completion once
// started); the promoted event is stamped with its trace id.
func (e *Engine) PromoteReplica(ctx context.Context, id string, minGen uint64) (PromotedSession, error) {
	if e.closed.Load() {
		return PromotedSession{}, ErrClosed
	}
	if e.replicas == nil || e.journalDir == "" {
		return PromotedSession{}, fmt.Errorf("engine: promotion needs a journal directory")
	}
	if err := ValidateSessionID(id); err != nil {
		return PromotedSession{}, err
	}
	if s, ok := e.Session(id); ok {
		live := s.generation()
		if live < minGen {
			return PromotedSession{}, fmt.Errorf("engine: session %s already live at generation %d (< requested %d)", id, live, minGen)
		}
		s.mu.Lock()
		iters, epoch := len(s.actions), s.epoch
		s.mu.Unlock()
		return PromotedSession{ID: id, Iterations: iters, Epoch: epoch, Gen: live}, nil
	}

	rs := e.replicas
	rs.mu.Lock()
	if rs.promoting[id] {
		rs.mu.Unlock()
		return PromotedSession{}, fmt.Errorf("engine: promotion of %s already in progress", id)
	}
	rs.promoting[id] = true
	if st := rs.sessions[id]; st != nil {
		st.mu.Lock() // wait out an in-flight append before the rename
		delete(rs.sessions, id)
		st.mu.Unlock()
	}
	rs.mu.Unlock()
	defer func() {
		rs.mu.Lock()
		delete(rs.promoting, id)
		rs.mu.Unlock()
	}()

	// The file ops below block (fsync, rename); they run outside the
	// store lock, and the promoting marker keeps a concurrent resync from
	// recreating replica state that this install would silently orphan.
	src := journalPath(rs.dir, id)
	f, err := os.Open(src)
	if err != nil {
		if os.IsNotExist(err) {
			return PromotedSession{}, fmt.Errorf("%w: %s", ErrNoReplica, id)
		}
		return PromotedSession{}, fmt.Errorf("engine: open replica for %s: %w", id, err)
	}
	// The replica file was fsync'd per append, but sync once more so the
	// rename publishes fully-durable content.
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return PromotedSession{}, fmt.Errorf("engine: fsync replica %s: %w", id, err)
	}
	_ = f.Close()
	// Clear any stale local remnant of a previous incarnation (a
	// snapshot file an earlier binary wrote): the replica is the
	// authoritative history now.
	if err := os.Remove(snapshotPath(e.journalDir, id)); err != nil && !os.IsNotExist(err) {
		return PromotedSession{}, fmt.Errorf("engine: drop stale snapshot for %s: %w", id, err)
	}
	if err := os.Rename(src, journalPath(e.journalDir, id)); err != nil {
		return PromotedSession{}, fmt.Errorf("engine: install replica journal for %s: %w", id, err)
	}
	if err := fsutil.SyncDir(e.journalDir); err != nil {
		return PromotedSession{}, err
	}

	s, replayed, err := e.restoreSession(id)
	if err != nil {
		return PromotedSession{}, err
	}
	// The restored generation is at least 1 (v1 journals restore as 1),
	// so the bump always moves past the deposed owner's.
	newGen := max(s.jl.gen+1, minGen)
	s.jl.gen = newGen
	if err := s.jl.append([]journalRecord{{T: "gen", Gen: newGen}}); err != nil {
		return PromotedSession{}, fmt.Errorf("engine: journal generation bump for %s: %w", id, err)
	}
	if err := e.adopt(s, replayed); err != nil {
		return PromotedSession{}, err
	}
	e.replPromotions.Inc()
	e.tel.Emit("session.promoted", id, obsv.FromContext(ctx).TraceContext().TraceID,
		map[string]any{"gen": newGen, "iterations": len(s.actions), "replayed_ops": replayed})
	return PromotedSession{ID: id, Iterations: len(s.actions), Epoch: s.epoch, Gen: newGen}, nil
}

// generation reads the session's fencing token under its lock, so it
// waits out a create still making the session durable: zero without a
// journal, which a journaled session lacks only when its create failed.
func (s *Session) generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jl == nil {
		return 0
	}
	return s.jl.gen
}

// Generation exposes the session's current generation (tests, status).
func (e *Engine) Generation(id string) (uint64, bool) {
	s, ok := e.Session(id)
	if !ok {
		return 0, false
	}
	return s.generation(), true
}

// ReplicationLagging reports whether the session is in degraded
// (single-copy) replication mode.
func (e *Engine) ReplicationLagging(id string) bool {
	s, ok := e.Session(id)
	if !ok {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl != nil && s.repl.lagging
}
