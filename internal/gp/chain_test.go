package gp

import (
	"math"
	"testing"

	"phasetune/internal/stats"
)

// TestChainMatchesDense: the chain solver's posterior is FitModel's,
// up to its larger ridge (1e-10 of each trend column's scale on top of
// FitModel's 1e-10), on per-input means with replicate counts and the
// GP-discontinuous trend (constant, linear and group dummies), at
// predicted inputs inside, between and beyond the conditioning inputs,
// unsorted conditioning inputs and a single one included. Designs with
// more basis functions than inputs are left out: only the ridge
// resolves their trend, which amplifies any rounding difference.
func TestChainMatchesDense(t *testing.T) {
	inGroup := func(lo, hi float64) BasisFunc {
		return IndicatorBasis(func(x []float64) bool { return x[0] > lo && x[0] <= hi })
	}
	bases := [][]BasisFunc{
		nil,
		{ConstantBasis()},
		{ConstantBasis(), LinearBasis(0), inGroup(20, 40), inGroup(40, 60)},
	}
	rng := stats.NewRNG(11)
	for _, npts := range []int{1, 2, 7, 45} {
		for _, theta := range []float64{0.4, 1, 6} {
			for bi, basis := range bases {
				if len(basis) > npts {
					continue
				}
				perm := rng.Perm(60)
				acts := make([]int, npts)
				ux := make([][]float64, npts)
				ys := make([]float64, npts)
				reps := make([]int, npts)
				for i := range acts {
					acts[i] = 5 + perm[i]
					ux[i] = []float64{float64(acts[i])}
					ys[i] = 0.05*float64(acts[i]) + rng.Normal(0, 0.5)
					reps[i] = 1 + rng.Intn(4)
				}
				model := Model{
					Kernel: Exponential{Alpha: 1.7, Theta: theta},
					Noise:  0.3,
					Reps:   reps,
					Basis:  basis,
				}
				dense, err := model.FitModel(ux, ys)
				if err != nil {
					t.Fatal(err)
				}
				chain, err := model.FitChain(acts, ys)
				if err != nil {
					t.Fatal(err)
				}
				var preds []int
				var pxs [][]float64
				for a := 0; a <= 70; a += 1 + rng.Intn(3) {
					preds, pxs = append(preds, a), append(pxs, []float64{float64(a)})
				}
				m1, s1 := make([]float64, len(preds)), make([]float64, len(preds))
				m2, s2 := make([]float64, len(preds)), make([]float64, len(preds))
				dense.PredictAll(pxs, m1, s1)
				if err := chain.PredictAll(preds, m2, s2); err != nil {
					t.Fatal(err)
				}
				dense.Release()
				chain.Release()
				for r, a := range preds {
					if math.Abs(m1[r]-m2[r]) > 1e-8*(1+math.Abs(m1[r])) || math.Abs(s1[r]-s2[r]) > 1e-8*(1+s1[r]) {
						t.Fatalf("n=%d theta=%v basis #%d, at %d: dense (%v, %v), chain (%v, %v)",
							npts, theta, bi, a, m1[r], s1[r], m2[r], s2[r])
					}
				}
			}
		}
	}
}

// TestChainRecycledFitsAgree: a fit that takes a recycled fit's storage
// predicts what a fresh one does, bit for bit.
func TestChainRecycledFitsAgree(t *testing.T) {
	model := Model{
		Kernel: Exponential{Alpha: 2, Theta: 1},
		Noise:  0.25,
		Basis:  []BasisFunc{ConstantBasis(), LinearBasis(0)},
	}
	acts, ys := []int{9, 3, 5, 12}, []float64{1, 2, 1.5, 0.5}
	preds := []int{1, 3, 4, 8, 12, 20}
	run := func() ([]float64, []float64) {
		fit, err := model.FitChain(acts, ys)
		if err != nil {
			t.Fatal(err)
		}
		m, s := make([]float64, len(preds)), make([]float64, len(preds))
		if err := fit.PredictAll(preds, m, s); err != nil {
			t.Fatal(err)
		}
		fit.Release()
		return m, s
	}
	m1, s1 := run()
	// A larger fit in between leaves longer storage behind.
	big, err := model.FitChain([]int{1, 2, 3, 4, 5, 6, 7, 8, 30, 31}, make([]float64, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := big.PredictAll([]int{0, 40}, make([]float64, 2), make([]float64, 2)); err != nil {
		t.Fatal(err)
	}
	big.Release()
	m2, s2 := run()
	for r := range preds {
		if math.Float64bits(m1[r]) != math.Float64bits(m2[r]) || math.Float64bits(s1[r]) != math.Float64bits(s2[r]) {
			t.Fatalf("at %d: (%v, %v) then (%v, %v)", preds[r], m1[r], s1[r], m2[r], s2[r])
		}
	}
}

// TestChainResolvesCollinearTrendWithoutNoise: on noise-free data that
// the trend fits exactly, with group dummies that sum to the constant
// column over every input, the posterior mean is the trend. The GP's
// variance is then rounding-sized and the noise is the jitter, so
// FᵀK⁻¹F is of order 1e12 and an absolute 1e-10 ridge is below its
// rounding: collinear columns must be resolved by a ridge on their
// own scale.
func TestChainResolvesCollinearTrendWithoutNoise(t *testing.T) {
	inGroup := func(lo, hi float64) BasisFunc {
		return IndicatorBasis(func(x []float64) bool { return x[0] > lo && x[0] <= hi })
	}
	acts := []int{14, 5, 9, 8, 6, 7, 10}
	reps := []int{1, 1, 3, 2, 1, 1, 1}
	ys := make([]float64, len(acts))
	for i, a := range acts {
		ys[i] = 1.2 * float64(a)
	}
	model := Model{
		Kernel: Exponential{Alpha: 1e-18, Theta: 1},
		Noise:  3e-30,
		Reps:   reps,
		Basis:  []BasisFunc{ConstantBasis(), LinearBasis(0), inGroup(2, 8), inGroup(8, 14)},
	}
	fit, err := model.FitChain(acts, ys)
	if err != nil {
		t.Fatal(err)
	}
	defer fit.Release()
	preds := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	mean, sd := make([]float64, len(preds)), make([]float64, len(preds))
	if err := fit.PredictAll(preds, mean, sd); err != nil {
		t.Fatal(err)
	}
	for r, a := range preds {
		if want := 1.2 * float64(a); math.Abs(mean[r]-want) > 1e-5*want || sd[r] > 1e-3 {
			t.Errorf("at %d: mean %v sd %v, want %v and about 0", a, mean[r], sd[r], want)
		}
	}
}

func TestChainErrors(t *testing.T) {
	exp := Exponential{Alpha: 1, Theta: 1}
	cases := []struct {
		name  string
		model Model
		xs    []int
		ys    []float64
	}{
		{"no data", Model{Kernel: exp}, nil, nil},
		{"length mismatch", Model{Kernel: exp}, []int{1}, []float64{1, 2}},
		{"negative noise", Model{Kernel: exp, Noise: -1}, []int{1}, []float64{1}},
		{"another kernel", Model{Kernel: Matern32{1, 1}}, []int{1}, []float64{1}},
		{"zero theta", Model{Kernel: Exponential{Alpha: 1}}, []int{1}, []float64{1}},
		{"zero replicates", Model{Kernel: exp, Reps: []int{0}}, []int{1}, []float64{1}},
		{"repeated input", Model{Kernel: exp}, []int{4, 2, 4}, []float64{1, 2, 3}},
	}
	for _, c := range cases {
		if _, err := c.model.FitChain(c.xs, c.ys); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}
