package engine

import (
	"context"
	"errors"
	"sync"

	"phasetune/internal/obsv"
)

// CacheKey identifies one deterministic evaluation: a scenario
// fingerprint (harness.ScenarioFingerprint — everything the DES makespan
// depends on), the platform epoch (two epochs never share values, the
// same soundness rule the faulty harness memo established), and the
// action (factorization node count).
type CacheKey struct {
	Fingerprint string
	Epoch       int
	Action      int
}

// cacheEntry is one memoized (or in-flight) evaluation. done is closed
// when val/err are final; waiters block on it.
type cacheEntry struct {
	done chan struct{}
	val  float64
	err  error
}

// Cache is the engine's shared, thread-safe evaluation memo with
// singleflight semantics: any number of concurrent callers asking for
// the same key pay for exactly one underlying simulation — the first
// caller computes, everyone else blocks on the same entry. Errors are
// never cached (the failed entry is removed so a later caller retries),
// and hit/miss accounting is exact: a request that triggers computation
// is a miss, a request served by an existing entry — completed or
// in-flight — is a hit.
type Cache struct {
	mu      sync.Mutex
	entries map[CacheKey]*cacheEntry
	hits    int64
	misses  int64
	flying  int64
	tel     *obsv.Telemetry // nil disables the request counters
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[CacheKey]*cacheEntry{}}
}

// EvalCtx returns the value for key, computing it via compute at most
// once per key across all concurrent callers. hit reports whether the
// value came from an existing entry rather than this call's
// computation. A caller waiting on another goroutine's in-flight
// computation stops waiting when its context is done (the computation
// itself continues and lands in the cache for later callers —
// cancellation abandons the wait, not the work). The abandoned wait
// still counts as a hit: the request was served by an existing entry,
// it just declined to stay for the answer. A waiter whose computing
// caller gave up on its own context, before the work ran, computes
// the value itself rather than inherit that cancellation.
func (c *Cache) EvalCtx(ctx context.Context, key CacheKey, compute func() (float64, error)) (val float64, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if c.tel != nil {
			c.tel.CacheHits.Inc()
			select {
			case <-e.done:
			default:
				c.tel.CacheShares.Inc()
			}
		}
		c.mu.Unlock()
		select {
		case <-e.done:
			if e.err != nil && ctx.Err() == nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				return c.EvalCtx(ctx, key, compute)
			}
			return e.val, true, e.err
		case <-ctx.Done():
			return 0, true, ctx.Err()
		}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.flying++
	if c.tel != nil {
		c.tel.CacheMisses.Inc()
	}
	c.mu.Unlock()

	e.val, e.err = compute()

	c.mu.Lock()
	c.flying--
	if e.err != nil {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
	return e.val, false, e.err
}

// Prime inserts a completed value for key without touching the hit/miss
// accounting. Recovery uses it to rewarm the cache from journaled
// makespans: an uninterrupted run would hold these entries, and batch
// speculation peeks at them for constant-liar hints, so a recovered
// engine must expose the same view. An existing entry (completed or
// in-flight) wins — values for one key are identical by construction.
func (c *Cache) Prime(key CacheKey, val float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{done: make(chan struct{}), val: val}
	close(e.done)
	c.entries[key] = e
}

// Peek returns the completed value for key without blocking and without
// touching the hit/miss accounting. In-flight entries report !ok.
func (c *Cache) Peek(key CacheKey) (float64, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return 0, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return 0, false
		}
		return e.val, true
	default:
		return 0, false
	}
}

// DropEpochsBelow evicts every completed entry of the fingerprint whose
// epoch is strictly below epoch, returning the number evicted. Entries
// of other fingerprints and in-flight computations are untouched: a
// platform transition never invalidates someone else's scenario, and an
// in-flight entry is owned by the goroutine computing it.
func (c *Cache) DropEpochsBelow(fingerprint string, epoch int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for k, e := range c.entries {
		if k.Fingerprint != fingerprint || k.Epoch >= epoch {
			continue
		}
		select {
		case <-e.done:
			delete(c.entries, k)
			dropped++
		default:
		}
	}
	return dropped
}

// CacheStats is a point-in-time snapshot of the cache accounting.
type CacheStats struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	InFlight int64   `json:"in_flight"`
	Entries  int     `json:"entries"`
	HitRatio float64 `json:"hit_ratio"` // hits / (hits + misses); 0 when empty
}

// Stats returns the current accounting snapshot.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{
		Hits:     c.hits,
		Misses:   c.misses,
		InFlight: c.flying,
		Entries:  len(c.entries),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
