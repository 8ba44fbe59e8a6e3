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
// Results commit in groups: a group's records go to the journal in one
// append (one write, one fsync) and to the follower in one ship, and
// no step of a group is delivered before the whole group is on both
// disks. The shapes differ only in how the groups fall:
//
//   - Atomic (step, batch-step) is a single group: it waits for every
//     evaluation and journals the whole operation as one "step" or
//     "batch" record, so a crash keeps all of it or none. If any
//     evaluation fails, nothing commits and one "abort" record carries
//     the consumed proposals (and lies), so recovery replays the same
//     Next/lie sequence.
//   - Streaming (stream-step) removes the batch barrier, where the
//     slowest evaluation gates every result. Each group starts at the
//     oldest uncommitted proposal once its evaluation lands and takes
//     every later one that has already landed, stopping at the first
//     still running or failed, one "scommit" record per step. The
//     first group also carries the "spropose" record with every
//     proposal and lie, so a failure after it keeps the committed
//     prefix and needs no abort record. If the first evaluation fails,
//     spropose is journaled alone, as an abort.
//
// Step and batch stay single records rather than a propose record plus
// one record per step: an atomic operation is one group either way, so
// the per-step form would cost the same append and ship while adding
// records to write and replay, and buy an early delivery an atomic
// operation cannot use.

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
	v    float64
	hit  bool
	err  error
	done chan struct{} // closed once the fields above are set
}

// landed reports, without blocking, whether out's evaluation finished.
func (out *evalOut) landed() bool {
	select {
	case <-out.done:
		return true
	default:
		return false
	}
}

// nextGroup returns the end of the commit group that starts at
// proposal from (see above), blocking until it is known. An atomic
// group waits for every evaluation; a stream's waits only for its
// first. A group that cannot commit ends at from and carries the
// error: the first failed evaluation in proposal order.
func nextGroup(stream bool, outs []evalOut, from int) (int, error) {
	if !stream {
		for i := range outs {
			<-outs[i].done
		}
		for _, out := range outs {
			if out.err != nil {
				return from, out.err
			}
		}
		return len(outs), nil
	}
	<-outs[from].done
	if err := outs[from].err; err != nil {
		return from, err
	}
	to := from + 1
	for to < len(outs) && outs[to].landed() && outs[to].err == nil {
		to++
	}
	return to, nil
}

// advance is the engine's one commit path (see above). k is the batch
// width: 0 for a step (which journals and keys without a width),
// otherwise the request's width, bounded by the session's action
// count. A key that already committed the same operation replays its
// journaled steps and reports replayed=true. onStart (optional) fires
// once, before any step is delivered: at once for a replay, otherwise
// after the first group is durable, so an operation that commits
// nothing returns its error without it. onStep (optional) receives
// each step once its group is durable, or each replayed step. The
// returned steps are the ones committed (and delivered); a failed
// stream returns its committed prefix alongside the error.
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

	outs := make([]evalOut, len(actions))
	evalAt := func(i int) {
		v, hit, err := e.eval(ctx, s.ev, epoch, actions[i])
		outs[i].v, outs[i].hit, outs[i].err = v, hit, err
		close(outs[i].done)
	}
	// Cached proposals evaluate on this goroutine before any other
	// starts, so an all-cached operation lands as one group whatever the
	// scheduler does. The rest run on goroutines of their own, except
	// the first proposal: it commits first, so it evaluates here while
	// the others run beside it. A later one evaluated here would hold
	// back the landed steps before it.
	var cold []int
	for i, a := range actions {
		outs[i].done = make(chan struct{})
		if _, ok := e.cache.Peek(CacheKey{Fingerprint: fp, Epoch: epoch, Action: a}); ok {
			evalAt(i)
		} else if i > 0 {
			cold = append(cold, i)
		}
	}
	for _, i := range cold {
		go evalAt(i)
	}
	if !outs[0].landed() {
		evalAt(0)
	}

	var recs []journalRecord
	if sh.stream {
		recs = append(recs, journalRecord{
			T: "spropose", Epoch: epoch, K: k, Actions: actions, Lies: lies, Key: key,
		})
	}
	first := len(s.actions)
	steps := make([]StepResult, 0, len(actions))
	hits := make([]bool, 0, len(actions))
	for from := 0; from < len(actions); from = len(steps) {
		to, err := nextGroup(sh.stream, outs, from)
		if to == from {
			if from > 0 {
				// A stream keeps its committed prefix. Later evaluations,
				// if any succeed, only warm the cache.
				return steps, false, err
			}
			// Nothing committed, but the strategy consumed proposals (and
			// lies): journal them alone so recovery replays the same
			// Next/lie sequence. An abort carries no key, and a spropose
			// without scommits registers none, so a retry re-attempts.
			rec := journalRecord{T: "abort", Epoch: epoch, Actions: actions, Lies: lies}
			if sh.stream {
				rec = recs[0]
			}
			if jerr := e.commitOp(ctx, s, rec); jerr != nil {
				return nil, false, errors.Join(err, jerr)
			}
			return nil, false, err
		}
		for i := from; i < to; i++ {
			a, out := actions[i], outs[i]
			d := s.observe(out.v)
			s.driver.Observe(a, d)
			res := s.record(a, d, out.v)
			res.CacheHit = out.hit
			steps = append(steps, res)
			hits = append(hits, out.hit)
			if sh.stream {
				recs = append(recs, journalRecord{
					T: "scommit", Epoch: epoch, Iter: res.Iter,
					Actions: []int{a}, Sims: []float64{out.v}, Obs: []float64{d}, Hits: []bool{out.hit},
				})
			}
		}
		if !sh.stream {
			sims := make([]float64, len(steps))
			obs := make([]float64, len(steps))
			for i, r := range steps {
				sims[i], obs[i] = r.Sim, r.Duration
			}
			recs = append(recs, journalRecord{
				T: sh.op, Epoch: epoch, Iter: first, K: k, Key: key,
				Actions: actions, Lies: lies, Sims: sims, Obs: obs, Hits: hits,
			})
		}
		if err := e.commitOp(ctx, s, recs...); err != nil {
			return steps[:from], false, err
		}
		recs = recs[:0]
		// After each durable group the key replays exactly the committed
		// prefix.
		s.registerIdem(key, idemEntry{
			op: sh.op, first: first, n: len(steps), k: k, hits: hits,
		})
		if from == 0 && onStart != nil {
			onStart(false)
		}
		if onStep != nil {
			for _, r := range steps[from:] {
				onStep(r)
			}
		}
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
// step is delivered through onStep once it commits, in a group with
// every later step whose evaluation had already landed. onStart
// (optional) fires once before the first onStep: when the first group
// is durable, or at once with replayed=true when an idempotency key
// replays previously committed steps. A stream whose first evaluation
// fails commits nothing and returns the error without firing onStart.
// The returned count is the number of steps delivered.
//
// On a later evaluation failure the committed prefix stays committed
// (each of its groups was already durable and delivered) and the
// error is returned after the last good step. An idempotency key
// registers progressively: a retried key replays exactly the prefix
// that durably committed, while a stream that failed before its first
// commit re-attempts from scratch.
func (e *Engine) StreamBatchStepIdem(ctx context.Context, id string, k int, key string, onStart func(replayed bool), onStep func(StepResult)) (int, bool, error) {
	steps, replayed, err := e.advance(ctx, id, opStream, max(k, 1), key, onStart, onStep)
	return len(steps), replayed, err
}
