package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheSingleflight pins the contract the whole engine rests on:
// any number of concurrent requests for one key run exactly one
// underlying computation, and the hit/miss accounting is exact.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	key := CacheKey{Fingerprint: "fp", Epoch: 0, Action: 7}
	var computes atomic.Int64
	const callers = 64

	var wg sync.WaitGroup
	vals := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.EvalCtx(context.Background(), key, func() (float64, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the race window
				return 42.5, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("underlying computations = %d, want exactly 1", n)
	}
	for i, v := range vals {
		if v != 42.5 {
			t.Fatalf("caller %d saw %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("accounting hits=%d misses=%d, want %d/1", st.Hits, st.Misses, callers-1)
	}
	if want := float64(callers-1) / float64(callers); st.HitRatio != want {
		t.Fatalf("hit ratio %v, want %v", st.HitRatio, want)
	}
	if st.Entries != 1 || st.InFlight != 0 {
		t.Fatalf("entries=%d inflight=%d, want 1/0", st.Entries, st.InFlight)
	}
}

func TestCacheDistinctKeysAndPeek(t *testing.T) {
	c := NewCache()
	for a := 1; a <= 4; a++ {
		v, hit, err := c.EvalCtx(context.Background(), CacheKey{"fp", 0, a}, func() (float64, error) {
			return float64(a) * 10, nil
		})
		if err != nil || hit || v != float64(a)*10 {
			t.Fatalf("action %d: v=%v hit=%v err=%v", a, v, hit, err)
		}
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 || st.Entries != 4 {
		t.Fatalf("stats after 4 distinct keys: %+v", st)
	}
	if v, ok := c.Peek(CacheKey{"fp", 0, 2}); !ok || v != 20 {
		t.Fatalf("Peek(2) = %v, %v", v, ok)
	}
	if _, ok := c.Peek(CacheKey{"fp", 0, 9}); ok {
		t.Fatal("Peek on absent key must miss")
	}
	// Peek never perturbs accounting.
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("Peek changed accounting: %+v", st)
	}
}

// TestCacheErrorsNotCached: a failed computation is retried by the next
// caller; concurrent waiters of the failing flight observe its error.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache()
	key := CacheKey{"fp", 0, 1}
	boom := errors.New("boom")
	if _, _, err := c.EvalCtx(context.Background(), key, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error left %d entries cached", st.Entries)
	}
	v, hit, err := c.EvalCtx(context.Background(), key, func() (float64, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestCacheCancelledLeader: a caller that gives up on its own context
// while waiting for a pool slot fails alone; a waiter that joined its
// flight with a live context computes the value itself.
func TestCacheCancelledLeader(t *testing.T) {
	c := NewCache()
	key := CacheKey{"fp", 0, 2}
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.EvalCtx(context.Background(), key, func() (float64, error) {
			<-release
			return 0, context.Canceled // what an abandoned pool wait returns
		})
		leaderErr <- err
	}()
	for c.Stats().InFlight == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { // release the leader once the waiter below has joined it
		for c.Stats().Hits == 0 {
			time.Sleep(time.Millisecond)
		}
		close(release)
	}()
	if v, _, err := c.EvalCtx(context.Background(), key, func() (float64, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("live waiter got (%v, %v), want (9, nil)", v, err)
	}
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
}

// TestCacheEpochInvalidation: epochs never share values, and advancing
// an epoch evicts exactly the fingerprint's stale entries.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewCache()
	var computes atomic.Int64
	eval := func(fp string, epoch, action int) float64 {
		v, _, err := c.EvalCtx(context.Background(), CacheKey{fp, epoch, action}, func() (float64, error) {
			computes.Add(1)
			return float64(100*epoch + action), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	if v := eval("fpA", 0, 3); v != 3 {
		t.Fatalf("epoch 0 value %v", v)
	}
	eval("fpA", 0, 4)
	eval("fpB", 0, 3) // other scenario, must survive fpA invalidation
	// Same action under a new epoch is a different point: recomputed.
	if v := eval("fpA", 1, 3); v != 103 {
		t.Fatalf("epoch 1 value %v — stale epoch-0 value leaked across epochs", v)
	}
	if n := computes.Load(); n != 4 {
		t.Fatalf("computes = %d, want 4", n)
	}

	if dropped := c.DropEpochsBelow("fpA", 1); dropped != 2 {
		t.Fatalf("dropped %d stale fpA entries, want 2", dropped)
	}
	if st := c.Stats(); st.Entries != 2 { // fpA epoch1 + fpB epoch0
		t.Fatalf("entries after invalidation = %d, want 2", st.Entries)
	}
	if _, ok := c.Peek(CacheKey{"fpB", 0, 3}); !ok {
		t.Fatal("invalidation of fpA evicted fpB's entry")
	}
	// Stale epoch re-requested after eviction recomputes (no resurrection).
	eval("fpA", 1, 3)
	if n := computes.Load(); n != 4 {
		t.Fatalf("live epoch entry was evicted (computes=%d)", n)
	}
}
