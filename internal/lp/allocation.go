package lp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// TaskClass describes one class of tasks to distribute: how many tasks
// exist and how long one task takes on each candidate node. A cost of
// +Inf marks a node that cannot execute the class (for example, the
// paper's generation tasks never run on GPU-only resources).
type TaskClass struct {
	Name  string
	Count float64   // number of tasks (may be fractional work units)
	Costs []float64 // seconds per task on node i
}

// Allocation is the solution of the task-allocation LP.
type Allocation struct {
	// Tasks[p][i] is the (fractional) number of class-p tasks given to
	// node i.
	Tasks [][]float64
	// Makespan is the LP-optimal makespan: the paper's optimistic lower
	// bound (no communications, no critical path).
	Makespan float64
}

// SolveAllocation solves
//
//	minimize M
//	s.t.  sum_i x[p][i] = Count[p]            for every class p
//	      sum_p Costs[p][i] * x[p][i] <= M    for every node i
//	      x >= 0
//
// which is the linear program of Nesi et al. (ICPP'21) used by the paper
// both for per-node task counts and as the LP(n) lower bound.
func SolveAllocation(classes []TaskClass, nNodes int) (*Allocation, error) {
	if nNodes <= 0 {
		return nil, fmt.Errorf("lp: allocation over %d nodes", nNodes)
	}
	for _, c := range classes {
		if len(c.Costs) != nNodes {
			return nil, fmt.Errorf("lp: class %q has %d costs, want %d",
				c.Name, len(c.Costs), nNodes)
		}
	}
	// Variable layout: one variable per finite (class, node) pair, then M.
	type varKey struct{ p, i int }
	idx := make(map[varKey]int)
	var keys []varKey
	for p, c := range classes {
		feasible := false
		for i, cost := range c.Costs {
			if !math.IsInf(cost, 1) {
				idx[varKey{p, i}] = len(keys)
				keys = append(keys, varKey{p, i})
				feasible = true
			}
		}
		if !feasible && c.Count > 0 {
			return nil, fmt.Errorf("lp: class %q cannot run on any node", c.Name)
		}
	}
	mVar := len(keys)
	nVars := mVar + 1

	prob := &Problem{Objective: make([]float64, nVars)}
	prob.Objective[mVar] = 1 // minimize M

	// Conservation: all tasks of each class are placed.
	for p, c := range classes {
		coeffs := make([]float64, nVars)
		any := false
		for i := range c.Costs {
			if j, ok := idx[varKey{p, i}]; ok {
				coeffs[j] = 1
				any = true
			}
		}
		if !any {
			continue
		}
		prob.Constraints = append(prob.Constraints, Constraint{
			Coeffs: coeffs, Sense: EQ, RHS: c.Count,
		})
	}
	// Load: every node finishes by M.
	for i := 0; i < nNodes; i++ {
		coeffs := make([]float64, nVars)
		any := false
		for p, c := range classes {
			if j, ok := idx[varKey{p, i}]; ok {
				coeffs[j] = c.Costs[i]
				any = true
			}
		}
		if !any {
			continue
		}
		coeffs[mVar] = -1
		prob.Constraints = append(prob.Constraints, Constraint{
			Coeffs: coeffs, Sense: LE, RHS: 0,
		})
	}

	sol, err := Solve(prob)
	if err != nil {
		return nil, err
	}
	out := &Allocation{Makespan: sol.X[mVar], Tasks: make([][]float64, len(classes))}
	for p := range classes {
		out.Tasks[p] = make([]float64, nNodes)
	}
	for k, j := range idx {
		out.Tasks[k.p][k.i] = sol.X[j]
	}
	return out, nil
}

// TwoClassMakespan returns the Makespan SolveAllocation finds for the two
// classes {a, b}, in closed form. For a fixed makespan M every node has
// M seconds to split between the classes, and placing all of b so that
// the most a-work still fits is a fractional knapsack: b goes first to
// the nodes that give up the least a-rate per unit of b-rate. The a-work
// that fits then grows piecewise linearly with M, one segment per node
// that runs b only, and the optimal M is where it reaches a.Count. Over
// n nodes this costs one sort, where the simplex pivots over 2n+1 dense
// columns.
func TwoClassMakespan(a, b TaskClass) (float64, error) {
	if len(a.Costs) != len(b.Costs) {
		return 0, fmt.Errorf("lp: classes %q and %q cost %d and %d nodes",
			a.Name, b.Name, len(a.Costs), len(b.Costs))
	}
	type node struct{ ra, rb, ratio float64 }
	var bNodes []node // the nodes that can run b
	otherA, totalA := 0.0, 0.0
	for i := range a.Costs {
		ra, rb := rateOf(a.Costs[i]), rateOf(b.Costs[i])
		totalA += ra
		if rb > 0 {
			bNodes = append(bNodes, node{ra, rb, ra / rb})
		} else {
			otherA += ra
		}
	}
	if a.Count > 0 && totalA == 0 {
		return 0, fmt.Errorf("lp: class %q cannot run on any node", a.Name)
	}
	if b.Count <= 0 {
		if a.Count <= 0 {
			return 0, nil
		}
		return a.Count / totalA, nil
	}
	if len(bNodes) == 0 {
		return 0, fmt.Errorf("lp: class %q cannot run on any node", b.Name)
	}
	slices.SortStableFunc(bNodes, func(x, y node) int { return cmp.Compare(x.ratio, y.ratio) })
	m := len(bNodes)
	prefB := make([]float64, m+1) // prefB[k]: b-rate of bNodes[:k]
	for k, nd := range bNodes {
		prefB[k+1] = prefB[k] + nd.rb
	}
	// The smallest M that fits b has every b-capable node run b only.
	if otherA*b.Count >= a.Count*prefB[m] {
		return b.Count / prefB[m], nil
	}
	// Walk up in M. On segment k, bNodes[:k] run b only, bNodes[k]
	// splits its time, and restA is the a-rate of every other node, k's
	// included. The segment ends at M = b.Count/prefB[k]; at the first
	// one whose end fits a.Count, the a-work that fits,
	// restA*M - ratio*(b.Count - prefB[k]*M), equals a.Count at the M
	// returned. Segment 0 never ends, so the walk stops there at last.
	restA := otherA
	for k := m - 1; ; k-- {
		nd := bNodes[k]
		restA += nd.ra
		if k == 0 || restA*b.Count >= a.Count*prefB[k] {
			return (a.Count + nd.ratio*b.Count) / (restA + nd.ratio*prefB[k]), nil
		}
	}
}

// rateOf is the tasks per second of a per-task cost; +Inf gives 0.
func rateOf(cost float64) float64 {
	if math.IsInf(cost, 1) {
		return 0
	}
	return 1 / cost
}

// RoundCounts converts a fractional allocation row into integer task
// counts that sum exactly to total, using the largest-remainder method.
func RoundCounts(frac []float64, total int) []int {
	n := len(frac)
	out := make([]int, n)
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, 0, n)
	sum := 0
	for i, f := range frac {
		if f < 0 {
			f = 0
		}
		fl := math.Floor(f + 1e-12)
		out[i] = int(fl)
		sum += out[i]
		rems = append(rems, rem{i, f - fl})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return rems[a].i < rems[b].i
	})
	for k := 0; sum < total; k++ {
		out[rems[k%n].i]++
		sum++
	}
	for k := 0; sum > total; k++ {
		i := rems[(n-1-k%n+n)%n].i
		if out[i] > 0 {
			out[i]--
			sum--
		}
	}
	return out
}

// LowerBoundSingleClass returns the closed-form LP bound for one task
// class: Count / sum_i(1/cost_i). Used as a fast path and as a test
// oracle for the simplex-based solution.
func LowerBoundSingleClass(count float64, costs []float64) float64 {
	rate := 0.0
	for _, c := range costs {
		if !math.IsInf(c, 1) && c > 0 {
			rate += 1 / c
		}
	}
	if rate == 0 {
		return math.Inf(1)
	}
	return count / rate
}
