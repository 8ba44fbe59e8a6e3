package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func constBound(v float64) func(int) float64 { return func(int) float64 { return v } }

// TestLPMemoSharesOneSolve: concurrent creates on one fingerprint pay
// for one solve and all see its bound.
func TestLPMemoSharesOneSolve(t *testing.T) {
	var m lpMemo
	var solves atomic.Int32
	release := make(chan struct{})
	solve := func() (func(int) float64, error) {
		solves.Add(1)
		<-release
		return constBound(42), nil
	}
	const callers = 8
	var wg sync.WaitGroup
	got := make([]float64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := m.bound("fp", solve)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = f(1)
		}(i)
	}
	close(release)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Fatalf("%d solves for one fingerprint, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got bound %v, want 42", i, v)
		}
	}
}

// TestLPMemoDoesNotCacheErrors: a failed solve reaches its caller, and
// the next create on that fingerprint solves again.
func TestLPMemoDoesNotCacheErrors(t *testing.T) {
	var m lpMemo
	boom := errors.New("boom")
	if _, err := m.bound("fp", func() (func(int) float64, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	solves := 0
	solve := func() (func(int) float64, error) {
		solves++
		return constBound(1), nil
	}
	for i := 0; i < 2; i++ {
		if _, err := m.bound("fp", solve); err != nil {
			t.Fatal(err)
		}
	}
	if solves != 1 {
		t.Fatalf("%d solves after a failed one, want 1", solves)
	}
	if len(m.entries) != 1 || len(m.order) != 1 {
		t.Fatalf("memo holds %d entries, %d ordered; want 1, 1", len(m.entries), len(m.order))
	}
}

// TestLPMemoBounded: the memo keeps the lpMemoCap newest fingerprints
// and solves an evicted one again.
func TestLPMemoBounded(t *testing.T) {
	var m lpMemo
	solves := map[string]int{}
	bound := func(fp string) {
		t.Helper()
		if _, err := m.bound(fp, func() (func(int) float64, error) {
			solves[fp]++
			return constBound(0), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= lpMemoCap; i++ {
		bound(fmt.Sprintf("fp%d", i))
	}
	if len(m.entries) != lpMemoCap {
		t.Fatalf("memo holds %d entries, cap %d", len(m.entries), lpMemoCap)
	}
	last := fmt.Sprintf("fp%d", lpMemoCap)
	bound(last)
	bound("fp0")
	if solves[last] != 1 || solves["fp0"] != 2 {
		t.Fatalf("solves: newest %d (want 1), evicted oldest %d (want 2)", solves[last], solves["fp0"])
	}
}

// TestCreateSessionMemoizesLPBound: fresh creates solve the bound in
// closed form and leave the memo alone, while model-1 sessions restored
// on one fingerprint share one simplex solve; another tile count is
// another fingerprint.
func TestCreateSessionMemoizesLPBound(t *testing.T) {
	e := New(1)
	for _, tiles := range []int{4, 4, 6} {
		if _, err := e.CreateSession(SessionConfig{ScenarioKey: "b", Tiles: tiles}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.lp.entries); n != 0 {
		t.Fatalf("memo holds %d fingerprints after fresh creates, want 0", n)
	}

	dir := t.TempDir()
	for i, tiles := range []int{4, 4, 4, 6} {
		cfg := legacyConfig
		cfg.Tiles = tiles
		writeLegacyJournal(t, dir, fmt.Sprintf("leg%d", i), cfg)
	}
	if n := len(recoverLegacy(t, dir).lp.entries); n != 2 {
		t.Fatalf("memo holds %d fingerprints after restores on two, want 2", n)
	}
}
