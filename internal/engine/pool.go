package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"phasetune/internal/obsv"
)

// Pool bounds how many DES evaluations run at once. It is a semaphore,
// not a goroutine farm: callers bring their own goroutines (sessions,
// sweeps, HTTP handlers) and DoCtx gates the expensive region, so waiting
// on a cache singleflight never occupies a slot — only actual
// simulation work does.
type Pool struct {
	sem     chan struct{}
	flying  atomic.Int64
	waiting atomic.Int64
	tel     *obsv.Telemetry // nil disables admission/latency histograms
}

// NewPool returns a pool admitting workers concurrent evaluations
// (workers <= 0 selects GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// InFlight returns how many evaluations hold a slot right now.
func (p *Pool) InFlight() int64 { return p.flying.Load() }

// Waiting returns how many callers are blocked on a slot right now —
// the service layer's saturation signal.
func (p *Pool) Waiting() int64 { return p.waiting.Load() }

// DoCtx runs fn holding one pool slot, or gives up with ctx.Err() if
// the context is done before a slot frees up. Once fn starts it runs to
// completion — cancellation abandons the wait for admission, never an
// in-progress simulation (a half-cancelled DES run has no meaningful
// result to cache).
func (p *Pool) DoCtx(ctx context.Context, fn func()) error {
	var t0 int64
	if p.tel != nil {
		t0 = p.tel.Now()
	}
	p.waiting.Add(1)
	select {
	case p.sem <- struct{}{}:
		p.waiting.Add(-1)
	case <-ctx.Done():
		p.waiting.Add(-1)
		return ctx.Err()
	}
	p.flying.Add(1)
	defer func() {
		p.flying.Add(-1)
		<-p.sem
	}()
	if p.tel == nil {
		fn()
		return nil
	}
	p.tel.PoolWait.Observe(p.tel.Seconds(t0))
	t1 := p.tel.Now()
	fn()
	p.tel.EvalLatency.Observe(p.tel.Seconds(t1))
	return nil
}

// ForEach runs fn(i) for every i in [0, n) on its own goroutine, each
// gated by the pool, and waits for all of them. The per-index fan-out
// (rather than a fixed worker loop) is what lets the cache singleflight
// collapse duplicate work without idling a pool slot.
func (p *Pool) ForEach(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}
