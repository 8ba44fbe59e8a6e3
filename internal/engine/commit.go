package engine

import (
	"context"
	"errors"
	"fmt"

	"phasetune/internal/obsv"
)

// The commit path. Step, batch-step and stream-step are one operation
// at three widths and two durability shapes: the driver proposes k
// actions at once (a constant-liar batch; with k = 1 exactly one Next
// call), the evaluations fan out in parallel through the shared cache
// and pool, and the results commit — noise drawn, strategy informed,
// history appended — strictly in proposal order. Committing in proposal
// order (not completion order) is what keeps every session a pure
// function of (seed, strategy, op sequence): the noise stream is
// consumed in the same order at 1 worker and at 8, so a streamed
// session reproduces a batch-stepped one bit-for-bit.
//
// The shapes differ only in what becomes durable, and when:
//
//   - Atomic (step, batch-step) waits for every evaluation and journals
//     the whole operation as one "step" or "batch" record, so a crash
//     keeps all of it or none. If any evaluation fails, nothing commits
//     and one "abort" record carries the consumed proposals (and lies),
//     so recovery replays the same Next/lie sequence.
//   - Streaming (stream-step) removes the batch barrier, where the
//     slowest evaluation gates every result. The proposals and their
//     lies are journaled up front in one "spropose" record, and each
//     step commits with its own "scommit" record the moment it becomes
//     the oldest uncommitted proposal. A failure mid-stream keeps the
//     committed prefix; the spropose record already accounts for the
//     rest, so no abort record is needed.
//
// Step and batch stay single records rather than a propose record plus
// one record per step: every record is an fsync and a replica
// round-trip before the caller sees its result, so the per-step form
// would roughly double the commit cost of a short session while
// buying nothing an atomic operation can use.

// opShape names one of the three operations advance serves.
type opShape struct {
	op     string // idempotency op; for atomic shapes also the journal record type
	span   string // the session-level span around the whole operation
	stream bool   // streaming durability instead of atomic
}

var (
	opStep   = opShape{op: "step", span: "session.step"}
	opBatch  = opShape{op: "batch", span: "session.batch-step"}
	opStream = opShape{op: "stream", span: "session.stream-step", stream: true}
)

// evalOut is one evaluation's outcome in a commit fan-out.
type evalOut struct {
	v   float64
	hit bool
	err error
}

// advance is the engine's one commit path (see above). k is the batch
// width: 0 for a step (which journals and keys without a width),
// otherwise the request's width, bounded by the session's action
// count. A key that already committed the same operation replays its
// journaled steps and reports replayed=true. onStart (optional) fires
// once the operation is admitted — for a stream, after its proposals
// are durable — and onStep (optional) receives each step as a stream
// commits it, or each replayed step. The returned steps are the ones
// committed (and delivered); a failed stream returns its committed
// prefix alongside the error.
func (e *Engine) advance(ctx context.Context, id string, sh opShape, k int, key string, onStart func(replayed bool), onStep func(StepResult)) ([]StepResult, bool, error) {
	s, err := e.checkout(id)
	if err != nil {
		return nil, false, err
	}
	if k > 1 {
		// NextBatch sizes its proposal slice by k before proposing, so an
		// unchecked width from a request body could exhaust memory.
		if n := len(s.ev.Actions()); k > n {
			return nil, false, fmt.Errorf("%w: batch width %d outside [1, %d]", ErrInvalid, k, n)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ent, found, err := s.lookupIdem(key, sh.op, k); err != nil {
		return nil, false, err
	} else if found {
		if onStart != nil {
			onStart(true)
		}
		steps := s.replaySteps(ent)
		if onStep != nil {
			for _, r := range steps {
				onStep(r)
			}
		}
		return steps, true, nil
	}
	if s.broken {
		return nil, false, fmt.Errorf("%w: %q", ErrFailedClosed, id)
	}
	sc := obsv.FromContext(ctx)
	var opArgs map[string]any
	endOp := sc.Span("session", sh.span)
	defer func() { endOp(opArgs) }()
	epoch := s.epoch
	fp := s.ev.Fingerprint()
	width := max(k, 1)
	endPropose := sc.Span("strategy", "strategy.propose")
	actions, lies := s.driver.NextBatch(width, func(a int) (float64, bool) {
		return e.cache.Peek(CacheKey{Fingerprint: fp, Epoch: epoch, Action: a})
	})
	s.props.Add(float64(len(actions)))
	if sc != nil {
		endPropose(map[string]any{"k": width, "actions": actions})
	} else {
		endPropose(nil)
	}

	if sh.stream {
		// Durable before any evaluation runs: whatever happens next,
		// recovery replays this exact Next/lie sequence, and committed
		// steps stack on top via their own scommit records.
		if err := e.commitOp(ctx, s, journalRecord{
			T: "spropose", Epoch: epoch, K: k, Actions: actions, Lies: lies, Key: key,
		}); err != nil {
			return nil, false, err
		}
	}
	if onStart != nil {
		onStart(false)
	}

	outs := make([]evalOut, len(actions))
	done := make([]chan struct{}, len(actions))
	for i := range done {
		done[i] = make(chan struct{})
	}
	evalAt := func(i int) {
		defer close(done[i])
		v, hit, err := e.eval(ctx, s.ev, epoch, actions[i])
		outs[i] = evalOut{v: v, hit: hit, err: err}
	}
	for i := 1; i < len(actions); i++ {
		go evalAt(i)
	}
	// The first proposal commits first in either shape, so it evaluates
	// on this goroutine while the rest run beside it; a step spawns none.
	evalAt(0)
	if !sh.stream {
		for _, ch := range done {
			<-ch
		}
		for _, out := range outs {
			if out.err == nil {
				continue
			}
			// The abort carries no key: a failed operation commits
			// nothing, so a retry must re-attempt, not replay.
			if jerr := e.commitOp(ctx, s, journalRecord{T: "abort", Epoch: epoch, Actions: actions, Lies: lies}); jerr != nil {
				return nil, false, errors.Join(out.err, jerr)
			}
			return nil, false, out.err
		}
	}

	first := len(s.actions)
	steps := make([]StepResult, 0, len(actions))
	hits := make([]bool, 0, len(actions))
	for i, a := range actions {
		<-done[i]
		out := outs[i]
		if out.err != nil {
			// Only a stream gets here. Later evaluations, if any
			// succeed, only warm the cache.
			return steps, false, out.err
		}
		d := s.observe(out.v)
		s.driver.Observe(a, d)
		res := s.record(a, d, out.v)
		res.CacheHit = out.hit
		hits = append(hits, out.hit)
		if sh.stream {
			if err := e.commitOp(ctx, s, journalRecord{
				T: "scommit", Epoch: epoch, Iter: res.Iter,
				Actions: []int{a}, Sims: []float64{out.v}, Obs: []float64{d}, Hits: []bool{out.hit},
			}); err != nil {
				return steps, false, err
			}
			// Progressive registration: after each durable step the key
			// replays exactly this prefix.
			s.registerIdem(key, idemEntry{
				op: sh.op, first: first, n: len(hits), k: k,
				hits: append([]bool(nil), hits...),
			})
			if onStep != nil {
				onStep(res)
			}
		}
		steps = append(steps, res)
	}
	if !sh.stream {
		sims := make([]float64, len(steps))
		obs := make([]float64, len(steps))
		for i, r := range steps {
			sims[i], obs[i] = r.Sim, r.Duration
		}
		if err := e.commitOp(ctx, s, journalRecord{
			T: sh.op, Epoch: epoch, Iter: first, K: k, Key: key,
			Actions: actions, Lies: lies, Sims: sims, Obs: obs, Hits: hits,
		}); err != nil {
			return nil, false, err
		}
		s.registerIdem(key, idemEntry{op: sh.op, first: first, n: len(steps), k: k, hits: hits})
	}
	if sc != nil {
		opArgs = map[string]any{"k": width, "steps": len(steps), "first_iter": first}
	}
	return steps, false, nil
}

// StepIdem advances a session by one sequential tuning iteration:
// Next -> evaluate (cache/pool) -> noisy observation -> Observe. With
// the same seed and strategy, a stepped session reproduces
// harness.RunOnline bit-for-bit regardless of the engine's worker count
// or what other sessions are doing. The committed step is journaled
// (fsync'd) before StepIdem returns. A key that already committed a
// step replays the journaled result (byte-identical fields, no second
// application) and reports replayed=true; an empty key disables
// idempotency.
func (e *Engine) StepIdem(ctx context.Context, id, key string) (StepResult, bool, error) {
	steps, replayed, err := e.advance(ctx, id, opStep, 0, key, nil, nil)
	if err != nil {
		return StepResult{}, false, err
	}
	return steps[0], replayed, nil
}

// BatchStepIdem advances a session by up to k speculative iterations
// (k <= 0 means 1; k above the session's action count is an error):
// the driver proposes a constant-liar batch, all proposals are
// evaluated in parallel, and the whole batch commits atomically as one
// journal record. Under an idempotency key a committed batch replays
// instead of proposing again; the width k is part of the request shape,
// so reusing a key with a different k is an ErrIdemConflict.
func (e *Engine) BatchStepIdem(ctx context.Context, id string, k int, key string) ([]StepResult, bool, error) {
	return e.advance(ctx, id, opBatch, max(k, 1), key, nil, nil)
}

// StreamBatchStepIdem is BatchStepIdem without the batch barrier: each
// step is delivered through onStep as it commits. onStart (optional)
// fires once after the operation is admitted, before the first onStep,
// with replayed=true when an idempotency key replays previously
// committed steps. The returned count is the number of steps delivered.
//
// On a mid-stream evaluation failure the committed prefix stays
// committed (each step was already durable and delivered) and the
// error is returned after the last good step. An idempotency key
// registers progressively: a retried key replays exactly the prefix
// that durably committed, while a stream that failed before its first
// commit re-attempts from scratch.
func (e *Engine) StreamBatchStepIdem(ctx context.Context, id string, k int, key string, onStart func(replayed bool), onStep func(StepResult)) (int, bool, error) {
	steps, replayed, err := e.advance(ctx, id, opStream, max(k, 1), key, onStart, onStep)
	return len(steps), replayed, err
}
