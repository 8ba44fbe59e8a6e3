package gp

import (
	"math"
	"testing"
	"testing/quick"

	"phasetune/internal/stats"
)

func TestKernelsAtZero(t *testing.T) {
	ks := []Kernel{
		Exponential{2, 3}, SquaredExponential{2, 3},
		Matern32{2, 3}, Matern52{2, 3},
	}
	for _, k := range ks {
		if got := k.Cov(0); math.Abs(got-2) > 1e-12 {
			t.Errorf("%T Cov(0) = %v, want 2", k, got)
		}
		if k.Variance() != 2 {
			t.Errorf("%T Variance() = %v", k, k.Variance())
		}
	}
}

func TestKernelsDecreasing(t *testing.T) {
	ks := []Kernel{
		Exponential{1, 2}, SquaredExponential{1, 2},
		Matern32{1, 2}, Matern52{1, 2},
	}
	for _, k := range ks {
		prev := k.Cov(0)
		for r := 0.5; r < 20; r += 0.5 {
			c := k.Cov(r)
			if c > prev+1e-15 {
				t.Fatalf("%T not monotone at r=%v", k, r)
			}
			if c < 0 {
				t.Fatalf("%T negative covariance at r=%v", k, r)
			}
			prev = c
		}
	}
}

func TestExponentialMatchesPaperForm(t *testing.T) {
	k := Exponential{Alpha: 4, Theta: 2}
	if got, want := k.Cov(2), 4*math.Exp(-1); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cov = %v, want %v", got, want)
	}
}

func TestDistance(t *testing.T) {
	if d := Distance([]float64{0, 0}, []float64{3, 4}); d != 5 {
		t.Fatalf("Distance = %v", d)
	}
}

func TestFitInterpolatesNoiseFree(t *testing.T) {
	xs := X1(0, 1, 2, 3)
	ys := []float64{1, -1, 0.5, 2}
	fit, err := Model{Kernel: Exponential{1, 1}, Noise: 0}.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		m, sd := fit.Predict(x)
		if math.Abs(m-ys[i]) > 1e-5 {
			t.Fatalf("mean at training point %v = %v, want %v", x, m, ys[i])
		}
		if sd > 1e-3 {
			t.Fatalf("sd at training point = %v, want ~0", sd)
		}
	}
}

func TestFitZeroMeanRevertsToZero(t *testing.T) {
	// The paper's Figure 3 remark: with no trend the GP reverts to 0 far
	// from data.
	fit, err := Model{Kernel: Exponential{1, 1}, Noise: 0.01}.FitModel(
		X1(0, 1), []float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	m, sd := fit.Predict([]float64{50})
	if math.Abs(m) > 1e-6 {
		t.Fatalf("far-field mean = %v, want ~0", m)
	}
	if math.Abs(sd-1) > 1e-6 {
		t.Fatalf("far-field sd = %v, want prior sd 1", sd)
	}
}

func TestFitConstantTrendRevertsToMean(t *testing.T) {
	fit, err := Model{
		Kernel: Exponential{1, 1},
		Noise:  0.01,
		Basis:  []BasisFunc{ConstantBasis()},
	}.FitModel(X1(0, 1, 2), []float64{5, 5.2, 4.8})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := fit.Predict([]float64{100})
	if math.Abs(m-5) > 0.3 {
		t.Fatalf("far-field mean = %v, want ~5", m)
	}
}

func TestFitLinearTrendExtrapolates(t *testing.T) {
	// y = 3 + 2x sampled exactly; a linear-trend GP should recover the
	// trend and extrapolate it.
	xs := X1(0, 1, 2, 3, 4)
	ys := make([]float64, 5)
	for i := range ys {
		ys[i] = 3 + 2*float64(i)
	}
	fit, err := Model{
		Kernel: Exponential{1, 1},
		Noise:  1e-6,
		Basis:  []BasisFunc{ConstantBasis(), LinearBasis(0)},
	}.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	g := fit.TrendCoefficients()
	if math.Abs(g[0]-3) > 0.05 || math.Abs(g[1]-2) > 0.02 {
		t.Fatalf("gamma = %v, want ~(3, 2)", g)
	}
	m, _ := fit.Predict([]float64{10})
	if math.Abs(m-23) > 0.5 {
		t.Fatalf("extrapolated mean = %v, want ~23", m)
	}
}

func TestFitDummyVariableCapturesJump(t *testing.T) {
	// A step function: 0 for x<5, 10 for x>=5. The dummy-variable trend
	// should explain the discontinuity that a smooth GP cannot.
	var xs [][]float64
	var ys []float64
	for x := 0.0; x < 10; x++ {
		xs = append(xs, []float64{x})
		if x < 5 {
			ys = append(ys, 0)
		} else {
			ys = append(ys, 10)
		}
	}
	dummy := IndicatorBasis(func(x []float64) bool { return x[0] >= 5 })
	fit, err := Model{
		Kernel: Exponential{1, 1},
		Noise:  1e-4,
		Basis:  []BasisFunc{ConstantBasis(), dummy},
	}.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	g := fit.TrendCoefficients()
	if math.Abs(g[1]-10) > 0.5 {
		t.Fatalf("jump coefficient = %v, want ~10", g[1])
	}
}

func TestPredictUncertaintyGrowsWithDistance(t *testing.T) {
	fit, err := Model{Kernel: Exponential{1, 2}, Noise: 0.01}.FitModel(
		X1(0), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	_, sdNear := fit.Predict([]float64{0.1})
	_, sdFar := fit.Predict([]float64{5})
	if sdNear >= sdFar {
		t.Fatalf("sd near (%v) should be below sd far (%v)", sdNear, sdFar)
	}
}

func TestPredictCIContainsTruthOnCos(t *testing.T) {
	// Reproduces the paper's Figure 3 setting: 8 noisy measurements of
	// cos on [0, 4pi]; the 95% CI should contain the true function at the
	// vast majority of grid points.
	rng := stats.NewRNG(7)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 8; i++ {
		x := rng.Float64() * 4 * math.Pi
		xs = append(xs, []float64{x})
		ys = append(ys, math.Cos(x)+rng.Normal(0, 0.05))
	}
	fit, err := Model{Kernel: SquaredExponential{1, 1.5}, Noise: 0.0025}.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	inside, total := 0, 0
	for x := 0.0; x <= 4*math.Pi; x += 0.1 {
		m, sd := fit.Predict([]float64{x})
		lo, hi := m-1.96*sd, m+1.96*sd
		if truth := math.Cos(x); truth >= lo-1e-9 && truth <= hi+1e-9 {
			inside++
		}
		total++
	}
	if frac := float64(inside) / float64(total); frac < 0.9 {
		t.Fatalf("CI coverage = %.2f, want >= 0.9", frac)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := (Model{Kernel: Exponential{1, 1}}).FitModel(nil, nil); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := (Model{Kernel: Exponential{1, 1}}).FitModel(X1(1), []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := (Model{Kernel: Exponential{1, 1}, Noise: -1}).FitModel(X1(1), []float64{1}); err == nil {
		t.Fatal("negative noise should error")
	}
	if _, err := (Model{}).FitModel(X1(1), []float64{1}); err == nil {
		t.Fatal("nil kernel should error")
	}
	if _, err := (Model{Kernel: Exponential{1, 1}, Reps: []int{1, 2}}).FitModel(X1(1), []float64{1}); err == nil {
		t.Fatal("replicate count length mismatch should error")
	}
	if _, err := (Model{Kernel: Exponential{1, 1}, Reps: []int{0}}).FitModel(X1(1), []float64{1}); err == nil {
		t.Fatal("a mean of zero observations should error")
	}
}

// TestFitOnMeansMatchesReplicates: conditioning on each input's mean,
// with its noise divided by its replicate count, gives the posterior of
// conditioning on every replicate, up to rounding.
func TestFitOnMeansMatchesReplicates(t *testing.T) {
	rng := stats.NewRNG(3)
	var xs, ux [][]float64
	var ys, means []float64
	var reps []int
	for a := 0; a < 12; a++ {
		k := 1 + a%4
		sum := 0.0
		for r := 0; r < k; r++ {
			y := 0.3*float64(a) + rng.Normal(0, 0.5)
			xs, ys = append(xs, []float64{float64(a)}), append(ys, y)
			sum += y
		}
		ux, means, reps = append(ux, []float64{float64(a)}), append(means, sum/float64(k)), append(reps, k)
	}
	model := Model{
		Kernel: Exponential{Alpha: 1.5, Theta: 2},
		Noise:  EstimateNoise(xs, ys, 0.25),
		Basis:  []BasisFunc{ConstantBasis(), LinearBasis(0)},
	}
	full, err := model.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	model.Reps = reps
	grouped, err := model.FitModel(ux, means)
	if err != nil {
		t.Fatal(err)
	}
	for x := -2.0; x <= 14; x += 0.5 {
		m1, s1 := full.Predict([]float64{x})
		m2, s2 := grouped.Predict([]float64{x})
		if math.Abs(m1-m2) > 1e-12*math.Abs(m1) || math.Abs(s1-s2) > 1e-12*s1 {
			t.Fatalf("at %v: replicates give (%v, %v), means (%v, %v)", x, m1, s1, m2, s2)
		}
	}
}

func TestFitHandlesReplicatedPoints(t *testing.T) {
	// Duplicate inputs with different noisy outputs must not crash the
	// Cholesky (jitter + noise handle it).
	fit, err := Model{Kernel: Exponential{1, 1}, Noise: 0.25}.FitModel(
		X1(2, 2, 2, 5), []float64{1.0, 1.4, 0.8, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := fit.Predict([]float64{2})
	if m < 0.8 || m > 1.4 {
		t.Fatalf("mean at replicated point = %v, want within data range", m)
	}
}

func TestEstimateNoisePooled(t *testing.T) {
	// Two replicated sites with known pooled variance.
	xs := X1(1, 1, 1, 4, 4, 9)
	ys := []float64{2, 4, 3, 10, 12, 100}
	// Site 1: mean 3, SS = 2; site 4: mean 11, SS = 2. dof = (3-1)+(2-1)=3.
	want := 4.0 / 3.0
	if got := EstimateNoise(xs, ys, 99); math.Abs(got-want) > 1e-12 {
		t.Fatalf("noise = %v, want %v", got, want)
	}
}

// TestEstimateNoiseDeterministic pins the estimate to one value per
// history: the pooled sum of squares is a float accumulation, so
// summing the replicate groups in map order made its last bits vary
// from call to call, and with them every GP posterior built on it.
func TestEstimateNoiseDeterministic(t *testing.T) {
	// The shape of a long tuning session: 190 entries on 60 inputs,
	// most of them replicated.
	rng := stats.NewRNG(7)
	xs := make([][]float64, 190)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = []float64{float64(10 + rng.Intn(60))}
		ys[i] = 40 + rng.Normal(0, 0.5)
	}
	want := math.Float64bits(EstimateNoise(xs, ys, 0.25))
	for i := 0; i < 2000; i++ {
		if got := math.Float64bits(EstimateNoise(xs, ys, 0.25)); got != want {
			t.Fatalf("call %d: noise bits %#x, first call %#x", i, got, want)
		}
	}
}

func TestEstimateNoiseFallback(t *testing.T) {
	if got := EstimateNoise(X1(1, 2, 3), []float64{1, 2, 3}, 0.5); got != 0.5 {
		t.Fatalf("fallback = %v", got)
	}
}

func TestEstimateNoiseNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n := 2 + rng.Intn(20)
		xs := make([][]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = []float64{float64(rng.Intn(5))}
			ys[i] = rng.Normal(0, 3)
		}
		return EstimateNoise(xs, ys, 0.1) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatesGrouping(t *testing.T) {
	groups := Replicates(X1(1, 2, 1, 3, 2, 2), []float64{10, 20, 11, 30, 21, 22})
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 3 {
		t.Fatalf("group sizes = %d, %d", len(groups[0]), len(groups[1]))
	}
}

func TestEstimateMLERecoverRange(t *testing.T) {
	// Sample from a GP-like smooth function with a known length scale and
	// check that the MLE theta is in a sane bracket.
	rng := stats.NewRNG(3)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		x := float64(i)
		xs = append(xs, []float64{x})
		ys = append(ys, 3*math.Sin(x/4)+rng.Normal(0, 0.05))
	}
	alpha, theta := EstimateMLE(xs, ys, MLEOptions{
		ThetaMin: 0.2, ThetaMax: 50, Noise: 0.0025,
	})
	if alpha <= 0 || theta <= 0 {
		t.Fatalf("non-positive hyperparameters: alpha=%v theta=%v", alpha, theta)
	}
	if theta < 0.5 || theta > 50 {
		t.Fatalf("theta = %v, outside plausible range", theta)
	}
	// The fitted model should predict well in-sample.
	fit, err := Model{Kernel: Exponential{alpha, theta}, Noise: 0.0025}.FitModel(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i, x := range xs {
		m, _ := fit.Predict(x)
		if d := math.Abs(m - ys[i]); d > worst {
			worst = d
		}
	}
	if worst > 0.5 {
		t.Fatalf("in-sample error = %v with MLE hyperparameters", worst)
	}
}

func TestX1(t *testing.T) {
	xs := X1(1, 2)
	if len(xs) != 2 || xs[1][0] != 2 {
		t.Fatalf("X1 = %v", xs)
	}
}
