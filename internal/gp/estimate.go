package gp

import (
	"math"
	"sort"

	"phasetune/internal/optimize"
	"phasetune/internal/stats"
)

// EstimateNoise implements the paper's pooled-replicate estimator of the
// observation noise sigma_N^2: over the set S of inputs measured more than
// once, sum (y - ybar(x))^2 / (sum_x n(x) - |S|). It returns fallback when
// no input has replicates. The groups are summed in first-occurrence
// order of their inputs, so the estimate is a pure function of the
// history: summed in map order, its last bits varied from call to call.
func EstimateNoise(xs [][]float64, ys []float64, fallback float64) float64 {
	ids, uniq := groupInputs(xs)
	// Lay the observations out group by group, each group in history
	// order, in one slice: start[g] is where group g begins.
	start := make([]int, len(uniq)+1)
	for _, g := range ids {
		start[g+1]++
	}
	for g := range uniq {
		start[g+1] += start[g]
	}
	next := append([]int(nil), start[:len(uniq)]...)
	obs := make([]float64, len(ys))
	for i, g := range ids {
		obs[next[g]] = ys[i]
		next[g]++
	}
	ss := 0.0
	dof := 0
	for g := range uniq {
		group := obs[start[g]:start[g+1]]
		if len(group) < 2 {
			continue
		}
		m := stats.Mean(group)
		for _, y := range group {
			d := y - m
			ss += d * d
		}
		dof += len(group) - 1
	}
	if dof == 0 {
		return fallback
	}
	return ss / float64(dof)
}

// groupInputs numbers the distinct inputs of xs in first-occurrence
// order: xs[i] equals uniq[ids[i]]. Inputs are equal when their keys
// are (coordinate by coordinate, +0 and -0 alike), so any function of
// the distance between two inputs, a kernel included, takes one value
// across a group.
func groupInputs(xs [][]float64) (ids []int, uniq [][]float64) {
	if ids, uniq, ok := groupIntegers(xs); ok {
		return ids, uniq
	}
	index := make(map[string]int, len(xs))
	ids = make([]int, len(xs))
	var key []byte
	for i, x := range xs {
		key = appendKey(key[:0], x)
		g, ok := index[string(key)]
		if !ok {
			g = len(uniq)
			index[string(key)] = g
			uniq = append(uniq, x)
		}
		ids[i] = g
	}
	return ids, uniq
}

// groupIntegers is groupInputs for 1-D integer-valued inputs that span
// at most 4 values per input plus 64, the shape of every action
// history: the groups sit in a slice indexed by value instead of a map
// keyed by text. Two such inputs have equal keys exactly when their
// integers are equal, so it numbers the same groups in the same order.
// ok is false for any other inputs.
func groupIntegers(xs [][]float64) (ids []int, uniq [][]float64, ok bool) {
	if len(xs) == 0 {
		return nil, nil, false
	}
	var lo, hi int64
	for i, x := range xs {
		if len(x) != 1 {
			return nil, nil, false
		}
		v, isInt := integer(x[0])
		if !isInt {
			return nil, nil, false
		}
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	if hi-lo >= int64(4*len(xs)+64) {
		return nil, nil, false
	}
	slot := make([]int, hi-lo+1) // 1 + the group of the value; 0 = unseen
	ids = make([]int, len(xs))
	for i, x := range xs {
		v, _ := integer(x[0])
		a := v - lo
		if slot[a] == 0 {
			uniq = append(uniq, x)
			slot[a] = len(uniq)
		}
		ids[i] = slot[a] - 1
	}
	return ids, uniq, true
}

// integer returns v as an integer when v is integer-valued and below
// 1e15 in magnitude, where a float64 holds every integer exactly.
func integer(v float64) (int64, bool) {
	//lint:allow floatsafe v == Trunc(v) is the canonical exact is-integer test; both sides share one rounding
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return int64(v), true
	}
	return 0, false
}

func keyOf(x []float64) string {
	return string(appendKey(make([]byte, 0, 16), x))
}

// appendKey appends x's grouping key to b. Inputs in this repository
// are small integer-valued vectors; a plain textual key is exact for
// them.
func appendKey(b []byte, x []float64) []byte {
	for _, v := range x {
		b = appendFloat(b, v)
		b = append(b, '|')
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	// Exact for the integers used as actions; fall back to bits otherwise.
	if n, ok := integer(v); ok {
		if n < 0 {
			b = append(b, '-')
			n = -n
		}
		var tmp [20]byte
		i := len(tmp)
		for {
			i--
			tmp[i] = byte('0' + n%10)
			n /= 10
			if n == 0 {
				break
			}
		}
		return append(b, tmp[i:]...)
	}
	// The marker keeps raw bits that happen to spell digits apart from
	// an integer's key.
	b = append(b, 'b')
	bits := math.Float64bits(v)
	for s := 56; s >= 0; s -= 8 {
		b = append(b, byte(bits>>uint(s)))
	}
	return b
}

// SampleVariance returns the sample variance of ys; the paper's
// GP-discontinuous strategy uses it as the fixed process variance alpha.
func SampleVariance(ys []float64) float64 { return stats.Variance(ys) }

// MLEOptions controls hyper-parameter estimation.
type MLEOptions struct {
	// ThetaMin/ThetaMax bound the range parameter search (log-spaced).
	ThetaMin, ThetaMax float64
	// Noise is the fixed observation-noise variance used during the
	// search (estimate it first with EstimateNoise).
	Noise float64
	// Basis is the trend used during estimation.
	Basis []BasisFunc
	// MaxEvals bounds likelihood evaluations.
	MaxEvals int
}

// EstimateMLE selects (alpha, theta) for the exponential kernel by
// maximizing the log marginal likelihood: theta by Brent search on a log
// scale and, for each theta, alpha by a short inner golden-section search.
// This mirrors "estimated from the data with an ML approach" for the
// GP-UCB variant — including its documented failure mode of
// over-confidence with few points.
func EstimateMLE(xs [][]float64, ys []float64, opt MLEOptions) (alpha, theta float64) {
	if opt.ThetaMin <= 0 {
		opt.ThetaMin = 0.1
	}
	if opt.ThetaMax <= opt.ThetaMin {
		opt.ThetaMax = 100 * opt.ThetaMin
	}
	if opt.MaxEvals <= 0 {
		opt.MaxEvals = 40
	}
	varY := stats.Variance(ys)
	if varY <= 0 {
		varY = 1
	}

	negLL := func(logTheta float64) float64 {
		th := math.Exp(logTheta)
		// Inner search over alpha around the sample variance.
		best := math.Inf(1)
		r := optimize.GoldenSection(func(logA float64) float64 {
			a := math.Exp(logA)
			fit, err := Model{
				Kernel: Exponential{Alpha: a, Theta: th},
				Noise:  opt.Noise,
				Basis:  opt.Basis,
			}.FitModel(xs, ys)
			if err != nil {
				return math.Inf(1)
			}
			return -fit.LogLikelihood()
		}, math.Log(varY)-4, math.Log(varY)+4, 1e-3, 12)
		if r.F < best {
			best = r.F
		}
		return best
	}
	r := optimize.Brent(negLL, math.Log(opt.ThetaMin), math.Log(opt.ThetaMax),
		1e-3, opt.MaxEvals)
	theta = math.Exp(r.X)

	// Recover the alpha chosen at the optimal theta.
	ra := optimize.GoldenSection(func(logA float64) float64 {
		a := math.Exp(logA)
		fit, err := Model{
			Kernel: Exponential{Alpha: a, Theta: theta},
			Noise:  opt.Noise,
			Basis:  opt.Basis,
		}.FitModel(xs, ys)
		if err != nil {
			return math.Inf(1)
		}
		return -fit.LogLikelihood()
	}, math.Log(varY)-4, math.Log(varY)+4, 1e-3, 16)
	alpha = math.Exp(ra.X)
	return alpha, theta
}

// Replicates returns, sorted by input key, the groups of repeated
// observations (useful for diagnostics and tests).
func Replicates(xs [][]float64, ys []float64) [][]float64 {
	groups := map[string][]float64{}
	for i, x := range xs {
		k := keyOf(x)
		groups[k] = append(groups[k], ys[i])
	}
	keys := make([]string, 0, len(groups))
	for k, obs := range groups {
		if len(obs) > 1 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([][]float64, 0, len(keys))
	for _, k := range keys {
		out = append(out, groups[k])
	}
	return out
}
