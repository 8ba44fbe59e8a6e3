package core

import (
	"math"
	"sort"
	"time"

	"phasetune/internal/gp"
	"phasetune/internal/linalg"
)

// GPVariant selects between the two Gaussian-Process strategies of
// Section IV-D.
type GPVariant int

// Variants.
const (
	// VariantGPUCB is the off-the-shelf GP-UCB: ordinary kriging on the
	// raw durations with maximum-likelihood hyper-parameters.
	VariantGPUCB GPVariant = iota
	// VariantDiscontinuous is the paper's proposed method: LP-bounded
	// search space, GP over the LP residual with a linear trend and
	// per-group dummy variables, fixed theta=1 and alpha = sample
	// variance.
	VariantDiscontinuous
)

// Acquisition selects the exploration/exploitation rule the GP strategy
// uses to pick the next action from the posterior.
type Acquisition int

// Acquisition rules (for minimization).
const (
	// AcqLCB is the paper's GP-UCB rule: minimize mu - sqrt(beta)*sigma
	// with beta growing logarithmically (no-regret).
	AcqLCB Acquisition = iota
	// AcqEI maximizes the expected improvement over the best observed
	// duration — the classical Bayesian-optimization acquisition.
	AcqEI
	// AcqPI maximizes the probability of improving on the best observed
	// duration.
	AcqPI
)

// GPOptions tunes the GP strategies; the zero value gives the paper's
// settings.
type GPOptions struct {
	// Acq selects the acquisition rule (default AcqLCB, the paper's).
	Acq Acquisition
	// NoiseFallback is the observation noise variance used before any
	// action has replicates (default 0.25 — the paper's 0.5 s sd).
	NoiseFallback float64
	// Delta is the UCB confidence parameter (default 0.1).
	Delta float64
	// Theta is the fixed range for the discontinuous variant (default 1).
	Theta float64
	// MLEEvals bounds likelihood evaluations per iteration for the
	// GP-UCB variant (default 12).
	MLEEvals int
	// DisableBound turns off the LP bound mechanism (ablation).
	DisableBound bool
	// DisableDummies turns off the group dummy variables (ablation).
	DisableDummies bool
	// DisableTrend models raw durations instead of the LP residual
	// (ablation).
	DisableTrend bool
	// UniformInit replaces the paper's parsimonious initial design with
	// a uniform spread of initial measurements (the LHS/maximin-style
	// initialization the paper argues is too costly) — ablation.
	UniformInit bool
	// Window, when positive, fits the surrogate on only the most recent
	// Window observations. This is the extension toward the
	// non-stationary scenarios the paper's conclusion calls for: when the
	// platform's behaviour drifts (background load, thermal throttling),
	// old measurements describe a function that no longer exists.
	Window int
}

func (o *GPOptions) setDefaults() {
	if o.NoiseFallback <= 0 {
		o.NoiseFallback = 0.25
	}
	if o.Delta <= 0 {
		o.Delta = 0.1
	}
	if o.Theta <= 0 {
		o.Theta = 1
	}
	if o.MLEEvals <= 0 {
		o.MLEEvals = 12
	}
}

// GPStrategy is the Gaussian-Process exploration strategy (both
// variants).
type GPStrategy struct {
	ctx     Context
	variant GPVariant
	opt     GPOptions
	hist    *history

	allowed   []int // action set after the LP bound (set after iter 1)
	initQueue []int // parsimonious initial design (Section IV-D)
	boundSet  bool

	lastFit      time.Duration // wall-clock cost of the latest Next()
	lastMean     []float64     // posterior at each allowed action
	lastSD       []float64
	lastAlpha    float64
	lastTheta    float64
	pendingInit  bool
	pendingValue int
}

// NewGPUCB builds the off-the-shelf GP-UCB strategy.
func NewGPUCB(ctx Context, opt GPOptions) *GPStrategy {
	return newGP(ctx, VariantGPUCB, opt)
}

// NewGPDiscontinuous builds the paper's proposed strategy.
func NewGPDiscontinuous(ctx Context, opt GPOptions) *GPStrategy {
	return newGP(ctx, VariantDiscontinuous, opt)
}

func newGP(ctx Context, v GPVariant, opt GPOptions) *GPStrategy {
	if err := ctx.Validate(); err != nil {
		panic(err)
	}
	opt.setDefaults()
	return &GPStrategy{ctx: ctx, variant: v, opt: opt, hist: newHistory()}
}

// Name implements Strategy.
func (g *GPStrategy) Name() string {
	if g.variant == VariantDiscontinuous {
		return "GP-discontinuous"
	}
	return "GP-UCB"
}

// LastFitDuration returns the wall-clock time the latest Next() spent on
// surrogate computations — the quantity of the paper's Figure 7.
func (g *GPStrategy) LastFitDuration() time.Duration { return g.lastFit }

// Allowed returns the action set after the LP bound (nil before the
// first observation).
func (g *GPStrategy) Allowed() []int { return append([]int(nil), g.allowed...) }

// Posterior returns the latest fitted mean and standard deviation for an
// action (valid after the first model-based Next).
func (g *GPStrategy) Posterior(action int) (mean, sd float64, ok bool) {
	if g.lastMean == nil || !g.isAllowed(action) {
		return 0, 0, false
	}
	i := sort.SearchInts(g.allowed, action)
	return g.lastMean[i], g.lastSD[i], true
}

// Hyperparameters returns the latest (alpha, theta).
func (g *GPStrategy) Hyperparameters() (alpha, theta float64) {
	return g.lastAlpha, g.lastTheta
}

// Next implements Strategy.
func (g *GPStrategy) Next() int {
	start := time.Now() //lint:allow determinism lastFit is overhead diagnostics (LastFitDuration), never feeds proposals or observations
	defer func() { g.lastFit = time.Since(start) }()

	// Iteration 1: the application default — all nodes.
	if g.hist.iterations() == 0 {
		return g.ctx.N
	}
	if !g.boundSet {
		g.computeBoundAndInit()
	}
	if len(g.initQueue) > 0 {
		g.pendingInit = true
		g.pendingValue = g.initQueue[0]
		return g.initQueue[0]
	}
	return g.modelSelect()
}

// Observe implements Strategy.
func (g *GPStrategy) Observe(action int, duration float64) {
	duration, ok := SanitizeObservation(duration)
	if !ok {
		return
	}
	g.hist.observe(action, duration)
	if g.pendingInit && len(g.initQueue) > 0 && action == g.initQueue[0] {
		g.initQueue = g.initQueue[1:]
		g.pendingInit = false
	}
}

// computeBoundAndInit runs once after the first (all-nodes) observation:
// it applies the LP bound to prune hopeless small configurations and
// builds the parsimonious initial design.
func (g *GPStrategy) computeBoundAndInit() {
	g.boundSet = true
	// The reference duration is the first observation — normally the
	// all-nodes default. Under a degraded platform the first action may
	// have been clamped below ctx.N, in which case hist.mean[ctx.N]
	// would be a spurious zero and the bound would prune every action.
	yAll := g.hist.ys[0]
	useBound := g.variant == VariantDiscontinuous && !g.opt.DisableBound &&
		g.ctx.LP != nil
	for n := g.ctx.Min; n <= g.ctx.N; n++ {
		if useBound && g.ctx.LP(n) >= yAll {
			continue
		}
		g.allowed = append(g.allowed, n)
	}
	if len(g.allowed) == 0 {
		g.allowed = []int{g.ctx.N}
	}

	if g.opt.UniformInit {
		// Ablation: a uniform quasi-random design of ~8 points spread
		// over the allowed space (each measured once, plus one repeat
		// for noise information).
		k := 8
		if k > len(g.allowed) {
			k = len(g.allowed)
		}
		var queue []int
		for i := 0; i < k; i++ {
			idx := i * (len(g.allowed) - 1) / max(k-1, 1)
			queue = append(queue, g.allowed[idx])
		}
		if len(queue) > 0 {
			queue = append(queue, queue[len(queue)/2])
		}
		g.initQueue = queue
		return
	}

	left := g.allowed[0]
	mid := (left + g.ctx.N) / 2
	// Left-most point, then the midpoint twice (replicates reveal the
	// observation noise).
	queue := []int{left, mid, mid}
	if g.variant == VariantDiscontinuous && !g.opt.DisableDummies {
		// Each group's last point measured once (skipping the all-nodes
		// group and anything outside the allowed set); if taken, probe
		// the next point instead.
		seen := map[int]bool{g.ctx.N: true}
		for _, q := range queue {
			seen[q] = true
		}
		ends := g.ctx.GroupEnds()
		for _, e := range ends {
			if e == g.ctx.N {
				continue // the last group is covered by iteration 1
			}
			p := e
			for seen[p] && p < g.ctx.N {
				p++
			}
			if p >= g.ctx.N || !g.isAllowed(p) {
				continue
			}
			queue = append(queue, p)
			seen[p] = true
		}
	}
	// Keep only allowed actions.
	g.initQueue = make([]int, 0, len(queue))
	for _, q := range queue {
		if g.isAllowed(q) {
			g.initQueue = append(g.initQueue, q)
		}
	}
}

func (g *GPStrategy) isAllowed(n int) bool {
	i := sort.SearchInts(g.allowed, n)
	return i < len(g.allowed) && g.allowed[i] == n
}

// modelSelect fits the surrogate and returns the action minimizing the
// optimistic lower confidence bound mu - sqrt(beta)*sigma.
func (g *GPStrategy) modelSelect() int {
	lo := 0
	if g.opt.Window > 0 && len(g.hist.xs) > g.opt.Window {
		lo = len(g.hist.xs) - g.opt.Window
	}
	xs := inputs(g.hist.xs[lo:])
	ys := make([]float64, len(xs))
	useTrendBaseline := g.variant == VariantDiscontinuous &&
		!g.opt.DisableTrend && g.ctx.LP != nil
	for i := range xs {
		ys[i] = g.hist.ys[lo+i]
		if useTrendBaseline {
			ys[i] -= g.ctx.LP(int(g.hist.xs[lo+i]))
		}
	}
	noise := gp.EstimateNoise(xs, ys, g.opt.NoiseFallback)
	if noise <= 0 {
		noise = g.opt.NoiseFallback
	}

	var model gp.Model
	switch g.variant {
	case VariantDiscontinuous:
		basis := []gp.BasisFunc{gp.ConstantBasis(), gp.LinearBasis(0)}
		if !g.opt.DisableDummies {
			ends := g.ctx.GroupEnds()
			for gi := 1; gi < len(ends); gi++ {
				lo := float64(ends[gi-1])
				hi := float64(ends[gi])
				basis = append(basis, gp.IndicatorBasis(func(x []float64) bool {
					return x[0] > lo && x[0] <= hi
				}))
			}
		}
		// alpha is the sample variance of what the GP must still
		// explain: the residual after the trend (OLS pre-fit). Using the
		// pre-trend variance would inflate posterior uncertainty at
		// unexplored points and force a full sweep — precisely what the
		// trend exists to avoid (the paper's Figure 4 (C) skips the
		// right zone for this reason).
		alpha := sampleVariance(olsResiduals(xs, ys, basis))
		if alpha <= 0 {
			alpha = 1
		}
		g.lastAlpha, g.lastTheta = alpha, g.opt.Theta
		model = gp.Model{
			Kernel: gp.Exponential{Alpha: alpha, Theta: g.opt.Theta},
			Noise:  noise,
			Basis:  basis,
		}
	default: // VariantGPUCB
		basis := []gp.BasisFunc{gp.ConstantBasis()}
		gRel := noise / math.Max(sampleVariance(ys), 1e-9)
		alpha, theta := gp.ProfiledMLE(xs, ys, basis, gRel,
			0.5, 4*float64(g.ctx.N), g.opt.MLEEvals)
		g.lastAlpha, g.lastTheta = alpha, theta
		model = gp.Model{
			Kernel: gp.Exponential{Alpha: alpha, Theta: theta},
			Noise:  gRel * alpha,
			Basis:  basis,
		}
	}

	fit, err := model.FitModel(xs, ys)
	if err != nil {
		// Singular surrogate (degenerate design): fall back to the
		// least-measured allowed action to regain information.
		return g.leastMeasured()
	}

	t := g.hist.iterations() + 1
	beta := 2 * math.Log(float64(len(g.allowed))*float64(t*t)*
		math.Pi*math.Pi/(6*g.opt.Delta))
	sb := math.Sqrt(math.Max(beta, 0))
	fMin := math.Inf(1)
	for _, y := range g.hist.ys {
		if y < fMin {
			fMin = y
		}
	}

	actions := make([]float64, len(g.allowed))
	for i, n := range g.allowed {
		actions[i] = float64(n)
	}
	g.lastMean = make([]float64, len(g.allowed))
	g.lastSD = make([]float64, len(g.allowed))
	fit.PredictAll(inputs(actions), g.lastMean, g.lastSD)
	fit.Release()
	best, bestScore := g.allowed[0], math.Inf(1)
	for i, n := range g.allowed {
		if useTrendBaseline {
			g.lastMean[i] += g.ctx.LP(n)
		}
		m, sd := g.lastMean[i], g.lastSD[i]
		// All acquisitions are folded into a score to minimize.
		var score float64
		switch g.opt.Acq {
		case AcqEI:
			score = -expectedImprovement(fMin, m, sd)
		case AcqPI:
			score = -probImprovement(fMin, m, sd)
		default:
			score = m - sb*sd
		}
		if score < bestScore {
			best, bestScore = n, score
		}
	}
	return best
}

// inputs views 1-D values as GP inputs without copying them.
func inputs(vs []float64) [][]float64 {
	xs := make([][]float64, len(vs))
	for i := range vs {
		xs[i] = vs[i : i+1 : i+1]
	}
	return xs
}

// expectedImprovement returns E[max(fMin - f(x), 0)] under the posterior.
func expectedImprovement(fMin, mean, sd float64) float64 {
	if sd <= 1e-12 {
		return math.Max(fMin-mean, 0)
	}
	z := (fMin - mean) / sd
	return (fMin-mean)*normCDF(z) + sd*normPDF(z)
}

// probImprovement returns P(f(x) < fMin) under the posterior.
func probImprovement(fMin, mean, sd float64) float64 {
	if sd <= 1e-12 {
		if mean < fMin {
			return 1
		}
		return 0
	}
	return normCDF((fMin - mean) / sd)
}

func normCDF(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

func normPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

func (g *GPStrategy) leastMeasured() int {
	best, cnt := g.allowed[0], math.MaxInt
	for _, n := range g.allowed {
		if c := g.hist.count[n]; c < cnt {
			best, cnt = n, c
		}
	}
	return best
}

// olsResiduals returns y - F*gamma for the ordinary-least-squares trend
// fit (ridge-stabilized); used to size the GP variance around the trend.
func olsResiduals(xs [][]float64, ys []float64, basis []gp.BasisFunc) []float64 {
	n := len(xs)
	p := len(basis)
	if n == 0 || p == 0 || n < p {
		return append([]float64(nil), ys...)
	}
	f := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			f.Set(i, j, basis[j](xs[i]))
		}
	}
	ftf := linalg.Mul(f.T(), f)
	for d := 0; d < p; d++ {
		ftf.Add(d, d, 1e-8)
	}
	fty := linalg.MulVec(f.T(), ys)
	gamma, err := linalg.SolveSPD(ftf, fty)
	if err != nil {
		return append([]float64(nil), ys...)
	}
	fit := linalg.MulVec(f, gamma)
	out := make([]float64, n)
	for i := range out {
		out[i] = ys[i] - fit[i]
	}
	return out
}

func sampleVariance(ys []float64) float64 {
	if len(ys) < 2 {
		return 0
	}
	m := 0.0
	for _, y := range ys {
		m += y
	}
	m /= float64(len(ys))
	s := 0.0
	for _, y := range ys {
		d := y - m
		s += d * d
	}
	return s / float64(len(ys)-1)
}
