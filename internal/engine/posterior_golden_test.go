package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phasetune/internal/core"
	"phasetune/internal/harness"
	"phasetune/internal/platform"
	"phasetune/internal/stats"
)

// posteriorRecorder is a GP-discontinuous strategy that logs, after
// every proposal, the action and a digest of the posterior it was
// chosen from.
type posteriorRecorder struct {
	*core.GPStrategy
	session string
	lines   []string
}

func (r *posteriorRecorder) Next() int {
	a := r.GPStrategy.Next()
	r.lines = append(r.lines, fmt.Sprintf("%s %03d a=%d post=%s",
		r.session, len(r.lines), a, posteriorDigest(r.GPStrategy)))
	return a
}

// posteriorDigest hashes the bits of the latest posterior mean and sd
// over the allowed set, or returns "-" before the first model fit.
func posteriorDigest(s *core.GPStrategy) string {
	allowed := s.Allowed()
	if len(allowed) == 0 {
		return "-"
	}
	h := sha256.New()
	var buf [16]byte
	for _, n := range allowed {
		mean, sd, ok := s.Posterior(n)
		if !ok {
			return "-"
		}
		binary.BigEndian.PutUint64(buf[:8], math.Float64bits(mean))
		binary.BigEndian.PutUint64(buf[8:], math.Float64bits(sd))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// posteriorGolden runs GP-discontinuous sessions shaped like the
// long-tune benchmark workload through a Driver: scenarios k, l, m and
// n at 12 tiles, 120 observations each, committed as step, step,
// batch of 4, batch of 4 (the benchmark's step/step/batch/stream
// cycle), with every lie the exact makespan a primed cache would hint
// and the engine's observation noise. It returns one line per proposal.
func posteriorGolden(t testing.TB) []string {
	const (
		tiles = 12
		obs   = 120
		width = 4
	)
	var out []string
	for _, key := range []string{"k", "l", "m", "n"} {
		sc, ok := platform.ScenarioByKey(key)
		if !ok {
			t.Fatalf("unknown scenario %q", key)
		}
		opts := harness.SimOptions{Tiles: tiles}
		lpf, err := harness.LPBound(sc, opts)
		if err != nil {
			t.Fatal(err)
		}
		sims := map[int]float64{}
		for a := sc.MinNodes; a <= sc.Platform.N(); a++ {
			if sims[a], err = harness.SimulateIteration(sc, a, opts); err != nil {
				t.Fatal(err)
			}
		}
		hint := func(a int) (float64, bool) {
			v, ok := sims[a]
			return v, ok
		}
		for seed := int64(1); seed <= 3; seed++ {
			rec := &posteriorRecorder{
				GPStrategy: core.NewGPDiscontinuous(core.Context{
					N: sc.Platform.N(), Min: sc.MinNodes,
					GroupSizes: sc.Platform.GroupSizes(), LP: lpf,
				}, core.GPOptions{}),
				session: fmt.Sprintf("%s/%d", key, seed),
			}
			d := NewDriver(rec)
			noise := stats.NewRNG(seed)
			for n := 0; n < obs; {
				for _, k := range []int{1, 1, width, width} {
					if n == obs {
						break
					}
					actions, _ := d.NextBatch(k, hint)
					for _, a := range actions {
						y := sims[a] + noise.Normal(0, harness.NoiseSD)
						if y < 0.01 {
							y = 0.01
						}
						d.Observe(a, y)
					}
					n += len(actions)
				}
			}
			out = append(out, rec.lines...)
		}
	}
	return out
}

// TestPosteriorGolden pins every GP-discontinuous proposal of
// long-tune-shaped sessions, and the bits of the posterior mean and sd
// over the allowed set it was chosen from, to
// testdata/posterior_golden.txt. A recovered session must re-propose
// its journaled actions, so a change to the GP's arithmetic that moves
// a last bit here can break the replay of journals earlier binaries
// wrote. The first differing line names the session and proposal.
func TestPosteriorGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential; a -race build only slows it down")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "posterior_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	got := posteriorGolden(t)
	for i := 0; i < len(got) && i < len(wantLines); i++ {
		if got[i] != wantLines[i] {
			t.Fatalf("first divergence at line %d:\ngot  %s\nwant %s", i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%d proposals, testdata has %d", len(got), len(wantLines))
	}
}
