package shard

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"
)

// stubRouter is a router over one stub worker that answers every
// request with a small JSON body, so what a proxied call allocates is
// the router's share plus a fixed cost of the in-process stub.
func stubRouter(tb testing.TB) *Router {
	tb.Helper()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"s1","iterations":0}`))
	}))
	tb.Cleanup(worker.Close)
	rt, err := New(Options{Shards: []Shard{{Name: "w0", Addr: worker.URL}}, Seed: 1, HealthInterval: time.Hour})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rt.Close)
	return rt
}

// proxyOnce sends one session read through the router.
func proxyOnce(tb testing.TB, rt *Router) {
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/sessions/s1", nil))
	if w.Code != http.StatusOK {
		tb.Fatalf("proxied read: %d %s", w.Code, w.Body)
	}
}

// BenchmarkRouterProxy times one proxied call and reports its
// allocations.
func BenchmarkRouterProxy(b *testing.B) {
	rt := stubRouter(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		proxyOnce(b, rt)
	}
}

// TestRouterProxyAllocs: a proxied call allocates less than the 32 KiB
// buffer the response is copied through, because the router recycles
// that buffer rather than making one per call.
func TestRouterProxyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rt := stubRouter(t)
	proxyOnce(t, rt) // dial the worker and fill the buffer pool
	const calls = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		proxyOnce(t, rt)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 32<<10 {
		t.Fatalf("a proxied call allocates %d bytes, at least its copy buffer", per)
	}
}
