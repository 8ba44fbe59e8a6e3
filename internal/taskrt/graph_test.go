package taskrt

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestGraphCacheBuildsEachShapeOnce: concurrent misses on one key share
// a single build, and the cache evicts its least recently used graph.
func TestGraphCacheBuildsEachShapeOnce(t *testing.T) {
	c := NewGraphCache[int](2)
	var builds atomic.Int32
	build := func() *Graph {
		builds.Add(1)
		var b Builder
		b.Add(NewLabel("t"), "w", 1, Place{}, false, 0)
		return b.Build()
	}
	got := make([]*Graph, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get(1, build)
		}(i)
	}
	wg.Wait()
	for _, g := range got {
		if g != got[0] {
			t.Fatal("concurrent callers got different graphs for one key")
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	c.Get(2, build) // cache: 1, 2
	c.Get(1, build) // hit; 2 is now least recently used
	c.Get(3, build) // evicts 2
	c.Get(1, build) // hit
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds, want 3", n)
	}
	c.Get(2, build) // rebuilt
	if n := builds.Load(); n != 4 {
		t.Fatalf("%d builds after re-requesting an evicted key, want 4", n)
	}
}
