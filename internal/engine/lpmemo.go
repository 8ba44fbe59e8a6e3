package engine

import (
	"slices"
	"sync"
)

// lpMemoCap bounds the LP-bound memo. One entry holds a node count's
// worth of floats, so the bound only keeps a stream of one-off
// fingerprints from growing the memo without limit; a working set of
// platforms far larger than the benchmark's four fits.
const lpMemoCap = 64

// lpMemo memoizes harness.LPBound per scenario fingerprint
// (harness.ScenarioFingerprint), the key the evaluation cache uses:
// equal fingerprints fix the tile count, the workload and every node's
// speeds, all the bound depends on. It lives as long as its engine and
// holds the lpMemoCap most recently added fingerprints, evicting the
// oldest. Concurrent creates on one fingerprint share one solve; an
// error reaches that solve's callers and is never cached.
type lpMemo struct {
	mu      sync.Mutex
	entries map[string]*lpEntry
	order   []string // fingerprints in insertion order
}

type lpEntry struct {
	done chan struct{} // closed once f and err are final
	f    func(n int) float64
	err  error
}

// bound returns the LP bound memoized for fingerprint fp, calling solve
// (harness.LPBound of that fingerprint's scenario) when there is none.
func (m *lpMemo) bound(fp string, solve func() (func(n int) float64, error)) (func(n int) float64, error) {
	m.mu.Lock()
	if e, ok := m.entries[fp]; ok {
		m.mu.Unlock()
		<-e.done
		return e.f, e.err
	}
	if m.entries == nil {
		m.entries = map[string]*lpEntry{}
	}
	if len(m.order) == lpMemoCap {
		delete(m.entries, m.order[0])
		m.order = m.order[1:]
	}
	e := &lpEntry{done: make(chan struct{})}
	m.entries[fp] = e
	m.order = append(m.order, fp)
	m.mu.Unlock()

	e.f, e.err = solve()
	if e.err != nil {
		m.mu.Lock()
		if m.entries[fp] == e {
			delete(m.entries, fp)
			i := slices.Index(m.order, fp)
			m.order = slices.Delete(m.order, i, i+1)
		}
		m.mu.Unlock()
	}
	close(e.done)
	return e.f, e.err
}
