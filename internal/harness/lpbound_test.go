package harness

import (
	"math"
	"testing"

	"phasetune/internal/platform"
)

// lpBoundRelTol is how far the closed-form bound may sit from the
// simplex's, relative to the simplex's. The two reach the optimum by
// different arithmetic, so they agree only to rounding: over every
// scenario, tile count and action below the worst gap measured was
// 1.42e-15, a few units in the last place.
const lpBoundRelTol = 1e-13

// TestLPBoundMatchesSimplex checks the closed-form LP bound against the
// dense simplex, its oracle, on all 16 scenarios at 4, 12, 24 and 48
// tiles and at the paper's size, for every action.
func TestLPBoundMatchesSimplex(t *testing.T) {
	if raceEnabled {
		t.Skip("the simplex on scenario p takes seconds, far longer under -race")
	}
	for _, sc := range platform.Scenarios() {
		t.Run(sc.Key, func(t *testing.T) {
			t.Parallel()
			worst := 0.0
			for _, tiles := range []int{4, 12, 24, 48, 0} {
				opts := SimOptions{Tiles: tiles}
				closed, err := LPBound(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				simplex, err := SimplexLPBound(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= sc.Platform.N(); n++ {
					got, want := closed(n), simplex(n)
					rel := math.Abs(got-want) / want
					worst = math.Max(worst, rel)
					if !(rel <= lpBoundRelTol) {
						t.Fatalf("%d tiles, n=%d: closed form %v, simplex %v (relative gap %.3g)",
							tiles, n, got, want, rel)
					}
				}
			}
			t.Logf("worst relative gap %.3g", worst)
		})
	}
}
