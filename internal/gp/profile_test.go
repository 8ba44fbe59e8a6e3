package gp

import (
	"math"
	"testing"

	"phasetune/internal/stats"
)

func TestProfiledMLERecoversScale(t *testing.T) {
	// Data from a smooth function with moderate amplitude: the profiled
	// alpha should land near the residual variance scale and theta within
	// the search bracket.
	rng := stats.NewRNG(5)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 30; i++ {
		x := float64(i)
		xs = append(xs, []float64{x})
		ys = append(ys, 5*math.Sin(x/5)+rng.Normal(0, 0.1))
	}
	alpha, theta := ProfiledMLE(xs, ys, []BasisFunc{ConstantBasis()},
		0.01, 0.5, 60, 14)
	if alpha <= 0 || math.IsNaN(alpha) {
		t.Fatalf("alpha = %v", alpha)
	}
	if theta < 0.5 || theta > 60 {
		t.Fatalf("theta = %v outside bracket", theta)
	}
	// The resulting model should interpolate the data well.
	fit, err := Model{
		Kernel: Exponential{Alpha: alpha, Theta: theta},
		Noise:  0.01 * alpha,
		Basis:  []BasisFunc{ConstantBasis()},
	}.FitModel(xs, ys)
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
	if worst > 1.0 {
		t.Fatalf("in-sample error %v with profiled hyper-parameters", worst)
	}
}

func TestProfiledMLEDegenerateInputs(t *testing.T) {
	// Empty data: defined fallback.
	alpha, theta := ProfiledMLE(nil, nil, nil, 0.1, 1, 10, 5)
	if alpha != 1 || theta < 1 {
		t.Fatalf("empty-data fallback = (%v, %v)", alpha, theta)
	}
	// Constant observations: alpha collapses toward zero but stays
	// positive and finite.
	xs := X1(1, 2, 3, 4)
	ys := []float64{2, 2, 2, 2}
	alpha, theta = ProfiledMLE(xs, ys, []BasisFunc{ConstantBasis()}, 0.1, 0.5, 20, 6)
	if alpha <= 0 || math.IsNaN(alpha) || math.IsNaN(theta) {
		t.Fatalf("constant-data result = (%v, %v)", alpha, theta)
	}
	// Negative g and inverted bracket get normalized.
	alpha, theta = ProfiledMLE(xs, []float64{1, 2, 1, 2}, nil, -1, 0, 0, 0)
	if alpha <= 0 || theta <= 0 {
		t.Fatalf("normalized result = (%v, %v)", alpha, theta)
	}
}

func TestProfiledMLEWithTrendBasis(t *testing.T) {
	// A strong linear trend should be absorbed by the basis, leaving a
	// small residual alpha.
	var xs [][]float64
	var ys []float64
	for i := 0; i < 25; i++ {
		xs = append(xs, []float64{float64(i)})
		ys = append(ys, 100+3*float64(i))
	}
	alphaTrend, _ := ProfiledMLE(xs, ys,
		[]BasisFunc{ConstantBasis(), LinearBasis(0)}, 0.01, 0.5, 30, 10)
	alphaNoTrend, _ := ProfiledMLE(xs, ys,
		[]BasisFunc{ConstantBasis()}, 0.01, 0.5, 30, 10)
	if alphaTrend >= alphaNoTrend {
		t.Fatalf("trend basis did not reduce residual variance: %v >= %v",
			alphaTrend, alphaNoTrend)
	}
}

func TestSampleVarianceHelper(t *testing.T) {
	if got := SampleVariance([]float64{1, 3}); got != 2 {
		t.Fatalf("SampleVariance = %v", got)
	}
}

func TestNumObservations(t *testing.T) {
	fit, err := Model{Kernel: Exponential{1, 1}, Noise: 0.1}.FitModel(
		X1(1, 2, 3), []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if fit.NumObservations() != 3 {
		t.Fatalf("NumObservations = %d", fit.NumObservations())
	}
}

func TestKeyOfNonIntegerInputs(t *testing.T) {
	// Non-integral coordinates exercise the bit-packing path of the
	// replicate grouping key; distinct values must not collide, not even
	// with an integer whose digits their raw bytes spell.
	digits := math.Float64frombits(0x3132333435363738) // bytes "12345678"
	xs := [][]float64{{1.5}, {1.5}, {2.25}, {-3.5}, {-3.5}, {12345678}, {digits}, {digits}}
	ys := []float64{1, 2, 5, 7, 9, 3, 4, 6}
	groups := Replicates(xs, ys)
	if len(groups) != 3 {
		t.Fatalf("groups = %v", groups)
	}
	for _, g := range groups {
		if len(g) != 2 {
			t.Fatalf("groups = %v", groups)
		}
	}
	noise := EstimateNoise(xs, ys, -1)
	if noise <= 0 {
		t.Fatalf("noise = %v", noise)
	}
}
