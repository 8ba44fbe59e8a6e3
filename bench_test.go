// Benchmarks regenerating every table and figure of the paper (reduced
// problem sizes keep them runnable in one go; the cmd/ tools run the
// paper-scale versions), plus ablation benchmarks for the design choices
// called out in DESIGN.md and micro-benchmarks of the substrates.
package phasetune_test

import (
	"testing"

	"phasetune"
	"phasetune/internal/cholesky"
	"phasetune/internal/core"
	"phasetune/internal/des"
	"phasetune/internal/distribution"
	"phasetune/internal/gp"
	"phasetune/internal/harness"
	"phasetune/internal/linalg"
	"phasetune/internal/lp"
	"phasetune/internal/perfmodel"
	"phasetune/internal/platform"
	"phasetune/internal/simnet"
	"phasetune/internal/stats"
)

// benchCurve caches one reduced-size curve per scenario key across
// benchmark iterations.
var benchCurves = map[string]*harness.Curve{}

func curveFor(b *testing.B, key string, tiles int) *harness.Curve {
	b.Helper()
	id := key + string(rune('0'+tiles%10))
	if c, ok := benchCurves[id]; ok {
		return c
	}
	sc, ok := platform.ScenarioByKey(key)
	if !ok {
		b.Fatalf("scenario %q missing", key)
	}
	c, err := harness.ComputeCurve(sc, harness.CurveOptions{
		Sim: harness.SimOptions{Tiles: tiles},
	})
	if err != nil {
		b.Fatal(err)
	}
	benchCurves[id] = c
	return c
}

// --- Table I / Table II ------------------------------------------------

func BenchmarkTable1Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.RenderTableI() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Nodes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if harness.RenderTableII() == "" {
			b.Fatal("empty table")
		}
	}
}

// --- Figure 1: traced iterations ---------------------------------------

func BenchmarkFig1Trace(b *testing.B) {
	sc, _ := platform.ScenarioByKey("b")
	for i := 0; i < b.N; i++ {
		mk, err := harness.SimulateIteration(sc, 8, harness.SimOptions{Tiles: 32})
		if err != nil {
			b.Fatal(err)
		}
		if mk <= 0 {
			b.Fatal("bad makespan")
		}
	}
}

// --- Figure 2: three representative curves ------------------------------

func BenchmarkFig2Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, key := range []string{"c", "i", "p"} {
			sc, _ := platform.ScenarioByKey(key)
			if _, err := harness.ComputeCurve(sc, harness.CurveOptions{
				Sim: harness.SimOptions{Tiles: 16},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 3: GP fit on cos --------------------------------------------

func BenchmarkFig3GPFit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		grid, _, _, err := harness.Fig3Demo(7)
		if err != nil {
			b.Fatal(err)
		}
		if harness.CoverageOfFig3(grid) < 0.5 {
			b.Fatal("coverage collapsed")
		}
	}
}

// --- Figure 4: step-by-step GP state ------------------------------------

func BenchmarkFig4StepByStep(b *testing.B) {
	c := curveFor(b, "b", 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps := harness.StepByStep(c, core.VariantDiscontinuous,
			[]int{5, 8, 20}, 3)
		if len(snaps) != 3 {
			b.Fatal("missing snapshots")
		}
	}
}

// --- Figure 5: all 16 curves ---------------------------------------------

func BenchmarkFig5Curves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sc := range platform.Scenarios() {
			if _, err := harness.ComputeCurve(sc, harness.CurveOptions{
				Sim: harness.SimOptions{Tiles: 12},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Figure 6: strategy comparison ---------------------------------------

func BenchmarkFig6Comparison(b *testing.B) {
	c := curveFor(b, "b", 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := harness.Compare(c, 40, 3, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		r := cmp.Result("GP-discontinuous")
		b.ReportMetric(r.GainPct, "gain%")
	}
}

// --- Figure 7: GP overhead -------------------------------------------------

func BenchmarkFig7Overhead(b *testing.B) {
	c := curveFor(b, "b", 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := harness.MeasureOverhead(c, 40, 2, int64(i))
		b.ReportMetric(res.Max*1000, "max_ms")
	}
}

// --- Figure 8: 2-D sweep ----------------------------------------------------

func BenchmarkFig8TwoDim(b *testing.B) {
	sc, _ := platform.ScenarioByKey("b")
	for i := 0; i < b.N; i++ {
		g, err := harness.ComputeGrid2D(sc, harness.Grid2DOptions{
			Sim: harness.SimOptions{Tiles: 12}, Stride: 4,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, _, best := g.Best()
		if best <= 0 {
			b.Fatal("bad grid")
		}
	}
}

// --- Ablations of the GP-discontinuous design choices ----------------------

func ablationGain(b *testing.B, opt core.GPOptions, seed int64) float64 {
	c := curveFor(b, "i", 24)
	pool := c.Pool(harness.NoiseSD, 30, seed)
	ctx := c.Context()
	rng := stats.NewRNG(seed + 1)
	baselineRng := stats.NewRNG(seed + 2)
	iters := 60
	s := core.NewGPDiscontinuous(ctx, opt)
	total := 0.0
	baseline := 0.0
	for i := 0; i < iters; i++ {
		a := s.Next()
		d := pool.Draw(a, rng)
		s.Observe(a, d)
		total += d
		baseline += pool.Draw(ctx.N, baselineRng)
	}
	return 100 * (baseline - total) / baseline
}

func BenchmarkAblationFullMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, core.GPOptions{}, int64(i)), "gain%")
	}
}

func BenchmarkAblationNoBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, core.GPOptions{DisableBound: true},
			int64(i)), "gain%")
	}
}

func BenchmarkAblationNoDummies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, core.GPOptions{DisableDummies: true},
			int64(i)), "gain%")
	}
}

func BenchmarkAblationRawTrend(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, core.GPOptions{DisableTrend: true},
			int64(i)), "gain%")
	}
}

func BenchmarkAblationInitDesign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(ablationGain(b, core.GPOptions{UniformInit: true},
			int64(i)), "gain%")
	}
}

func BenchmarkAblationMLEHyper(b *testing.B) {
	// GP-UCB (MLE hyper-parameters, no problem structure) on the same
	// scenario, for contrast with BenchmarkAblationFullMethod.
	c := curveFor(b, "i", 24)
	ctx := c.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := c.Pool(harness.NoiseSD, 30, int64(i))
		s := core.NewGPUCB(ctx, core.GPOptions{})
		rng := stats.NewRNG(int64(i) + 1)
		baseRng := stats.NewRNG(int64(i) + 2)
		total, baseline := 0.0, 0.0
		for it := 0; it < 60; it++ {
			a := s.Next()
			d := pool.Draw(a, rng)
			s.Observe(a, d)
			total += d
			baseline += pool.Draw(ctx.N, baseRng)
		}
		b.ReportMetric(100*(baseline-total)/baseline, "gain%")
	}
}

// BenchmarkAblationDistribution contrasts the three factorization
// distributions on the same platform: 1D weighted columns, LPT columns
// and the 2D weighted grid used by the library.
func BenchmarkAblationDistribution(b *testing.B) {
	speeds := make([]float64, 16)
	for i := range speeds {
		speeds[i] = []float64{5300, 2300, 550}[i%3]
	}
	for i := 0; i < b.N; i++ {
		for _, build := range []func(int, []float64) *distribution.Dist{
			distribution.WeightedCyclicColumns,
			distribution.WeightedColumnLPT,
			distribution.WeightedGrid,
		} {
			d := build(48, speeds)
			if d.Counts(16)[0] == 0 {
				b.Fatal("fastest node unused")
			}
		}
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

func BenchmarkSimulateIteration101(b *testing.B) {
	sc, _ := platform.ScenarioByKey("b")
	for i := 0; i < b.N; i++ {
		if _, err := harness.SimulateIteration(sc, 7,
			harness.SimOptions{Tiles: 48}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPAllocation(b *testing.B) {
	costs := make([]float64, 64)
	for i := range costs {
		costs[i] = 1 / float64(i%7+1)
	}
	for i := 0; i < b.N; i++ {
		if _, err := lp.SolveAllocation([]lp.TaskClass{
			{Name: "w", Count: 1e5, Costs: costs},
		}, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTiledCholesky(b *testing.B) {
	rng := stats.NewRNG(1)
	n, tile := 128, 32
	base := linalg.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			v := rng.Normal(0, 1)
			base.Set(r, c, v)
			base.Set(c, r, v)
		}
		base.Add(r, r, float64(2*n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := cholesky.FromDense(base, tile)
		if err != nil {
			b.Fatal(err)
		}
		if err := cholesky.TiledCholesky(tm, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFluidNetwork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		net := simnet.NewFluid(eng, 16, simnet.Topology{
			NICBandwidth: 1e9, BackboneBandwidth: 4e9, Latency: 1e-5,
		})
		done := 0
		for f := 0; f < 200; f++ {
			net.Transfer(f%16, (f+5)%16, 1e7, des.Func(func() { done++ }), 0)
		}
		eng.Run()
		if done != 200 {
			b.Fatal("transfers lost")
		}
	}
}

// BenchmarkGPFitPredict times one GP fit plus its predictions in two
// shapes: 60 distinct inputs with 15 predictions, and the shape of a
// late GP-discontinuous proposal on the long-tune benchmark workload,
// 190 history entries on 60 distinct actions (replicates and
// constant-liar lies) with predictions at 70 allowed actions.
func BenchmarkGPFitPredict(b *testing.B) {
	b.Run("distinct-60", func(b *testing.B) {
		rng := stats.NewRNG(2)
		var xs [][]float64
		var ys []float64
		for i := 0; i < 60; i++ {
			xs = append(xs, []float64{float64(i)})
			ys = append(ys, 10+rng.Normal(0, 1))
		}
		model := gp.Model{
			Kernel: gp.Exponential{Alpha: 1, Theta: 1},
			Noise:  0.25,
			Basis:  []gp.BasisFunc{gp.ConstantBasis(), gp.LinearBasis(0)},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fit, err := model.FitModel(xs, ys)
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < 60; n += 4 {
				fit.Predict([]float64{float64(n)})
			}
		}
	})
	b.Run("long-tune", func(b *testing.B) {
		rng := stats.NewRNG(2)
		var xs [][]float64
		var ys []float64
		for i := 0; i < 190; i++ {
			// Every one of the 60 actions at least once, then repeats.
			a := i
			if i >= 60 {
				a = rng.Intn(60)
			}
			xs = append(xs, []float64{float64(5 + a)})
			ys = append(ys, 10+0.05*float64(a)+rng.Normal(0, 0.5))
		}
		inGroup := func(lo, hi float64) gp.BasisFunc {
			return gp.IndicatorBasis(func(x []float64) bool { return x[0] > lo && x[0] <= hi })
		}
		model := gp.Model{
			Kernel: gp.Exponential{Alpha: 1, Theta: 1},
			Noise:  gp.EstimateNoise(xs, ys, 0.25),
			Basis: []gp.BasisFunc{gp.ConstantBasis(), gp.LinearBasis(0),
				inGroup(25, 50), inGroup(50, 75)},
		}
		preds := make([][]float64, 70)
		for i := range preds {
			preds[i] = []float64{float64(5 + i)}
		}
		mean := make([]float64, len(preds))
		sd := make([]float64, len(preds))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fit, err := model.FitModel(xs, ys)
			if err != nil {
				b.Fatal(err)
			}
			fit.PredictAll(preds, mean, sd)
		}
	})
}

func BenchmarkDistributionGrid(b *testing.B) {
	speeds := make([]float64, 128)
	for i := range speeds {
		speeds[i] = float64(1 + i%5)
	}
	for i := 0; i < b.N; i++ {
		d := distribution.WeightedGrid(128, speeds)
		if d.Owner(127, 0) < 0 {
			b.Fatal("bad owner")
		}
	}
}

// BenchmarkPublicAPIQuickTune exercises the facade end to end.
func BenchmarkPublicAPIQuickTune(b *testing.B) {
	sc, _ := phasetune.ScenarioByKey("b")
	curve, err := phasetune.ComputeCurve(sc, phasetune.CurveOptions{
		Sim: phasetune.SimOptions{Tiles: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	pool := curve.Pool(0.5, 30, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuner := phasetune.NewGPDiscontinuous(curve.Context(), phasetune.GPOptions{})
		ds := phasetune.Evaluate(tuner, pool, 30, phasetune.NewRNG(int64(i)))
		if len(ds) != 30 {
			b.Fatal("evaluation truncated")
		}
	}
}

// BenchmarkOnline2DTuning exercises the 2-D extension end to end: GP-2D
// drives fresh simulations over both phase node counts (the conclusion's
// proposed exploration for Figure 8 situations).
func BenchmarkOnline2DTuning(b *testing.B) {
	sc, _ := platform.ScenarioByKey("b")
	for i := 0; i < b.N; i++ {
		res, err := harness.RunOnline2D(sc, 30,
			harness.SimOptions{Tiles: 12}, core.GPOptions{}, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Actions) != 30 {
			b.Fatal("truncated run")
		}
	}
}

// BenchmarkAcquisitionRules contrasts the paper's LCB acquisition with
// classical EI and PI on the same scenario.
func BenchmarkAcquisitionRules(b *testing.B) {
	c := curveFor(b, "i", 24)
	ctx := c.Context()
	for i := 0; i < b.N; i++ {
		for _, acq := range []core.Acquisition{core.AcqLCB, core.AcqEI, core.AcqPI} {
			pool := c.Pool(harness.NoiseSD, 30, int64(i))
			s := core.NewGPDiscontinuous(ctx, core.GPOptions{Acq: acq})
			rng := stats.NewRNG(int64(i) + int64(acq))
			total := 0.0
			for it := 0; it < 50; it++ {
				a := s.Next()
				d := pool.Draw(a, rng)
				s.Observe(a, d)
				total += d
			}
		}
	}
}

// BenchmarkPerfModelCalibration measures the online performance-model
// substrate (StarPU-style history models with outlier rejection).
func BenchmarkPerfModelCalibration(b *testing.B) {
	rng := stats.NewRNG(1)
	flops := make([]float64, 1000)
	durs := make([]float64, 1000)
	for i := range flops {
		flops[i] = 1 + rng.Float64()
		durs[i] = flops[i]/1000 + rng.Normal(0, 1e-5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := perfmodel.New()
		for j := range flops {
			m.Observe("gemm", "gpu", flops[j], durs[j])
		}
		if _, ok := m.Estimate("gemm", "gpu", 1.5); !ok {
			b.Fatal("no estimate")
		}
	}
}
