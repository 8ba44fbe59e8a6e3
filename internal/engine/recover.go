package engine

import (
	"fmt"
	"math"
)

// streamReplayState carries one streaming batch across its journal
// records during replay.
type streamReplayState struct {
	key     string
	k       int
	first   int   // history index of the stream's first committed step
	pending []int // proposed actions not yet consumed by an scommit
	hits    []bool
}

// RecoveredSession reports one session restored by Recover.
type RecoveredSession struct {
	ID         string `json:"id"`
	Iterations int    `json:"iterations"`
	Epoch      int    `json:"epoch"`
	// ReplayedTail is the number of journal-tail operations replayed
	// beyond the snapshot — the work the last crash left un-compacted.
	ReplayedTail int `json:"replayed_tail"`
}

// Recover restores every session found in the engine's journal
// directory: for each ID it loads the snapshot, replays the journal
// tail through a fresh strategy (snapshot ops first, then tail ops),
// re-primes the shared evaluation cache with the journaled
// deterministic makespans, and reattaches the journal for continued
// appends. A recovered session continues bit-identically with a session
// that was never interrupted — the replay re-issues the exact recorded
// Next/lie/Observe sequence, and each replayed observation is checked
// bit-for-bit against the journal (a mismatch means the journal and the
// running binary disagree and the session is not restored).
//
// Recover must run on a fresh engine (journaling enabled, no sessions
// yet), before the HTTP server starts admitting requests.
func (e *Engine) Recover() ([]RecoveredSession, error) {
	if e.journalDir == "" {
		return nil, fmt.Errorf("engine: recovery needs a journal directory")
	}
	e.mu.Lock()
	if len(e.sessions) > 0 {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: recovery requires an empty engine (have %d sessions)", len(e.sessions))
	}
	e.mu.Unlock()

	ids, err := listSessionIDs(e.journalDir)
	if err != nil {
		return nil, err
	}
	if err := removeSnapshotTemps(e.journalDir, ids); err != nil {
		return nil, err
	}
	var out []RecoveredSession
	for _, id := range ids {
		st, err := loadSessionState(e.journalDir, id)
		if err != nil {
			return nil, err
		}
		s, err := e.buildSession(st.cfg.sessionConfig())
		if err != nil {
			return nil, fmt.Errorf("engine: rebuild session %s: %w", id, err)
		}
		s.id = id
		if err := e.replaySession(s, st.ops); err != nil {
			return nil, fmt.Errorf("engine: replay session %s: %w", id, err)
		}
		jl, err := reopenJournal(e.journalDir, st, e.snapEvery, e.tel)
		if err != nil {
			return nil, err
		}
		s.jl = jl
		s.gen = jl.gen // highest journaled generation (1 for v1 journals)
		if e.tel != nil {
			e.tel.RecoverySessions.Inc()
			e.tel.RecoveryReplayedOps.Add(float64(len(st.ops)))
		}

		e.mu.Lock()
		e.sessions[id] = s
		if n, ok := sessionNum(id); ok && n > e.nextID {
			e.nextID = n
		}
		e.mu.Unlock()
		out = append(out, RecoveredSession{
			ID:           id,
			Iterations:   len(s.actions),
			Epoch:        s.epoch,
			ReplayedTail: st.tail,
		})
	}
	return out, nil
}

// replaySession re-applies a session's journaled operation history.
// Holding no locks is fine: the session is not yet registered, so
// nothing else can reach it.
func (e *Engine) replaySession(s *Session, ops []journalRecord) error {
	// stream tracks the in-progress streaming batch during replay: the
	// spropose record opens it, each scommit consumes its oldest pending
	// proposal, and any other record (or the end of the journal)
	// abandons the uncommitted suffix — exactly the live semantics.
	var stream *streamReplayState
	for _, rec := range ops {
		if rec.T != "scommit" {
			stream = nil
		}
		switch rec.T {
		case "step", "batch", "spropose", "scommit":
			if rec.Epoch != s.epoch {
				return fmt.Errorf("op %d: journaled epoch %d, replay at epoch %d",
					rec.Seq, rec.Epoch, s.epoch)
			}
		}
		switch rec.T {
		case "step", "batch":
			if len(rec.Sims) != len(rec.Actions) || len(rec.Obs) != len(rec.Actions) {
				return fmt.Errorf("op %d: %d actions with %d sims / %d obs",
					rec.Seq, len(rec.Actions), len(rec.Sims), len(rec.Obs))
			}
			if err := s.driver.Replay(rec.Actions, rec.Lies); err != nil {
				return fmt.Errorf("op %d: %w", rec.Seq, err)
			}
			first := len(s.actions)
			for i := range rec.Actions {
				if err := e.replayStep(s, rec, i); err != nil {
					return err
				}
			}
			// Rebuild the idempotency registry: a client retrying the
			// committed request after the crash replays this exact
			// result instead of double-applying it.
			if rec.Key != "" {
				hits := rec.Hits
				if len(hits) != len(rec.Actions) {
					hits = make([]bool, len(rec.Actions))
				}
				s.registerIdem(rec.Key, idemEntry{
					op: rec.T, first: first, n: len(rec.Actions), k: rec.K, hits: hits,
				})
			}
		case "abort":
			// The strategy consumed proposals (and lies) whose
			// evaluations then failed; no observation committed.
			if err := s.driver.Replay(rec.Actions, rec.Lies); err != nil {
				return fmt.Errorf("op %d (abort): %w", rec.Seq, err)
			}
		case "spropose":
			if err := s.driver.Replay(rec.Actions, rec.Lies); err != nil {
				return fmt.Errorf("op %d (spropose): %w", rec.Seq, err)
			}
			stream = &streamReplayState{
				key: rec.Key, k: rec.K, first: len(s.actions),
				pending: rec.Actions,
			}
		case "scommit":
			if stream == nil || len(stream.pending) == 0 {
				return fmt.Errorf("op %d: scommit without a pending stream proposal", rec.Seq)
			}
			if len(rec.Actions) != 1 || len(rec.Sims) != 1 || len(rec.Obs) != 1 {
				return fmt.Errorf("op %d: scommit carries %d actions / %d sims / %d obs",
					rec.Seq, len(rec.Actions), len(rec.Sims), len(rec.Obs))
			}
			if a := stream.pending[0]; rec.Actions[0] != a {
				return fmt.Errorf("op %d: scommit action %d, stream proposed %d",
					rec.Seq, rec.Actions[0], a)
			}
			if err := e.replayStep(s, rec, 0); err != nil {
				return err
			}
			stream.pending = stream.pending[1:]
			hit := len(rec.Hits) == 1 && rec.Hits[0]
			stream.hits = append(stream.hits, hit)
			if stream.key != "" {
				s.registerIdem(stream.key, idemEntry{
					op: "stream", first: stream.first, n: len(stream.hits), k: stream.k,
					hits: append([]bool(nil), stream.hits...),
				})
			}
		case "epoch":
			s.epoch = rec.Epoch
			e.cache.DropEpochsBelow(s.ev.Fingerprint(), rec.Epoch)
			if rec.Key != "" {
				s.registerIdem(rec.Key, idemEntry{op: "epoch", epoch: rec.Epoch})
			}
		case "gen":
			// Fencing-token bump journaled at promotion. It advances no
			// session state during replay — the generation itself is
			// tracked by loadSessionState across all records.
		default:
			return fmt.Errorf("op %d: unknown record type %q", rec.Seq, rec.T)
		}
	}
	return nil
}

// replayStep re-commits step i of a journaled step, batch or scommit
// record: the noise draw must reproduce the journaled observation bit
// for bit (a mismatch means the journal and the running binary
// disagree), then the strategy observes it, the history records it,
// and the shared cache is rewarmed — the uninterrupted run would hold
// the entry, and batch lies peek at it.
func (e *Engine) replayStep(s *Session, rec journalRecord, i int) error {
	a, sim := rec.Actions[i], rec.Sims[i]
	d := s.observe(sim)
	if math.Float64bits(d) != math.Float64bits(rec.Obs[i]) {
		return fmt.Errorf("op %d action %d: replayed observation %v, journal says %v (journal and binary disagree)",
			rec.Seq, a, d, rec.Obs[i])
	}
	s.driver.Observe(a, d)
	s.record(a, d, sim)
	e.cache.Prime(CacheKey{Fingerprint: s.ev.Fingerprint(), Epoch: rec.Epoch, Action: a}, sim)
	return nil
}
