package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForceMin2D approximates the optimum of a 2-variable LP by scanning
// a fine grid over [0, bound]^2 and keeping the best feasible point.
func bruteForceMin2D(p *Problem, bound float64, steps int) (float64, bool) {
	best := math.Inf(1)
	found := false
	for i := 0; i <= steps; i++ {
		for j := 0; j <= steps; j++ {
			x := []float64{bound * float64(i) / float64(steps),
				bound * float64(j) / float64(steps)}
			feasible := true
			for _, c := range p.Constraints {
				v := c.Coeffs[0]*x[0] + c.Coeffs[1]*x[1]
				switch c.Sense {
				case LE:
					feasible = feasible && v <= c.RHS+1e-9
				case GE:
					feasible = feasible && v >= c.RHS-1e-9
				case EQ:
					feasible = feasible && math.Abs(v-c.RHS) <= bound/float64(steps)
				}
			}
			if feasible {
				found = true
				obj := p.Objective[0]*x[0] + p.Objective[1]*x[1]
				if obj < best {
					best = obj
				}
			}
		}
	}
	return best, found
}

func TestSimplexMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random bounded-feasible LP: minimize c.x with c >= 0 (bounded
		// below by x >= 0), plus <= constraints with positive coefficients
		// keeping the region inside a box.
		p := &Problem{Objective: []float64{
			rng.Float64()*4 - 1, rng.Float64()*4 - 1,
		}}
		nc := 1 + rng.Intn(3)
		for k := 0; k < nc; k++ {
			p.Constraints = append(p.Constraints, Constraint{
				Coeffs: []float64{0.2 + rng.Float64(), 0.2 + rng.Float64()},
				Sense:  LE,
				RHS:    1 + rng.Float64()*9,
			})
		}
		// Guarantee boundedness even with negative objective parts.
		p.Constraints = append(p.Constraints, Constraint{
			Coeffs: []float64{1, 1}, Sense: LE, RHS: 20,
		})
		sol, err := Solve(p)
		if err != nil {
			return false
		}
		want, ok := bruteForceMin2D(p, 25, 250)
		if !ok {
			return false
		}
		// Grid resolution limits the brute-force accuracy.
		return sol.Value <= want+1e-6 && sol.Value >= want-0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocationMakespanIsTightLowerBound(t *testing.T) {
	// For any allocation returned, every node finishes exactly by the
	// makespan (within tolerance) or has slack; and at least one node is
	// tight (otherwise the makespan could shrink).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.2 + rng.Float64()*3
		}
		alloc, err := SolveAllocation([]TaskClass{
			{Name: "w", Count: float64(50 + rng.Intn(200)), Costs: costs},
		}, n)
		if err != nil {
			return false
		}
		tight := false
		for i := 0; i < n; i++ {
			load := alloc.Tasks[0][i] * costs[i]
			if load > alloc.Makespan+1e-6 {
				return false
			}
			if load > alloc.Makespan-1e-6 {
				tight = true
			}
		}
		return tight
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTwoClassMakespanMatchesSimplex compares the closed form with the
// simplex on random two-class problems: arbitrary per-node costs, nodes
// that cannot run one class (+Inf), and empty classes.
func TestTwoClassMakespanMatchesSimplex(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		class := func(name string) TaskClass {
			c := TaskClass{Name: name, Count: rng.Float64() * 100, Costs: make([]float64, n)}
			if rng.Intn(8) == 0 {
				c.Count = 0
			}
			for i := range c.Costs {
				c.Costs[i] = 0.1 + rng.Float64()*5
				if rng.Intn(4) == 0 {
					c.Costs[i] = math.Inf(1)
				}
			}
			return c
		}
		a, b := class("a"), class("b")
		got, gotErr := TwoClassMakespan(a, b)
		alloc, wantErr := SolveAllocation([]TaskClass{a, b}, n)
		if gotErr != nil || wantErr != nil {
			if (gotErr == nil) != (wantErr == nil) {
				t.Logf("seed %d: closed form error %v, simplex error %v", seed, gotErr, wantErr)
				return false
			}
			return true
		}
		if math.Abs(got-alloc.Makespan) > 1e-9*math.Max(1, alloc.Makespan) {
			t.Logf("seed %d: closed form %v, simplex %v", seed, got, alloc.Makespan)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
