package core

import (
	"math"

	"phasetune/internal/gp"
)

// Action2D is a joint choice of generation and factorization node counts
// — the two-dimensional extension discussed in the paper's conclusion
// (Figure 8 shows scenarios where shrinking the generation set also
// helps).
type Action2D struct {
	Gen  int
	Fact int
}

// Context2D describes the 2-D tuning problem.
type Context2D struct {
	N       int // total nodes
	MinGen  int
	MinFact int
	// LP optionally bounds the makespan for a joint action.
	LP func(gen, fact int) float64
}

// GP2D explores the joint (generation, factorization) space with a
// Gaussian-Process surrogate over two inputs: constant + linear trends in
// both coordinates, exponential kernel, UCB acquisition. It follows the
// same parsimonious initialization philosophy as the 1-D strategy.
type GP2D struct {
	ctx  Context2D
	opt  GPOptions
	xs   [][]float64
	ys   []float64
	seen map[Action2D]int

	initQueue []Action2D
	actions   []Action2D
}

// NewGP2D builds the 2-D strategy.
func NewGP2D(ctx Context2D, opt GPOptions) *GP2D {
	if ctx.N < 1 {
		panic("core: GP2D with N < 1")
	}
	if ctx.MinGen < 1 {
		ctx.MinGen = 1
	}
	if ctx.MinFact < 1 {
		ctx.MinFact = 1
	}
	opt.setDefaults()
	g := &GP2D{ctx: ctx, opt: opt, seen: map[Action2D]int{}}
	for gen := ctx.MinGen; gen <= ctx.N; gen++ {
		for fact := ctx.MinFact; fact <= ctx.N; fact++ {
			g.actions = append(g.actions, Action2D{gen, fact})
		}
	}
	midG := (ctx.MinGen + ctx.N) / 2
	midF := (ctx.MinFact + ctx.N) / 2
	g.initQueue = []Action2D{
		{ctx.N, ctx.N},
		{ctx.N, ctx.MinFact},
		{ctx.MinGen, ctx.N},
		{midG, midF},
		{midG, midF},
	}
	return g
}

// Name returns the strategy name.
func (g *GP2D) Name() string { return "GP-2D" }

// Next2D proposes the next joint action.
func (g *GP2D) Next2D() Action2D {
	if len(g.initQueue) > 0 {
		return g.initQueue[0]
	}
	return g.modelSelect()
}

// Observe2D records a measured duration.
func (g *GP2D) Observe2D(a Action2D, duration float64) {
	duration, ok := SanitizeObservation(duration)
	if !ok {
		return
	}
	g.xs = append(g.xs, []float64{float64(a.Gen), float64(a.Fact)})
	g.ys = append(g.ys, duration)
	g.seen[a]++
	if len(g.initQueue) > 0 && g.initQueue[0] == a {
		g.initQueue = g.initQueue[1:]
	}
}

func (g *GP2D) modelSelect() Action2D {
	noise := gp.EstimateNoise(g.xs, g.ys, g.opt.NoiseFallback)
	alpha := sampleVariance(g.ys)
	if alpha <= 0 {
		alpha = 1
	}
	scale := math.Max(float64(g.ctx.N)/8, 1)
	model := gp.Model{
		Kernel: gp.Exponential{Alpha: alpha, Theta: scale},
		Noise:  noise,
		Basis: []gp.BasisFunc{
			gp.ConstantBasis(), gp.LinearBasis(0), gp.LinearBasis(1),
		},
	}
	fit, err := model.FitModel(g.xs, g.ys)
	if err != nil {
		return g.leastMeasured()
	}
	t := len(g.ys) + 1
	beta := 2 * math.Log(float64(len(g.actions))*float64(t*t)*
		math.Pi*math.Pi/(6*g.opt.Delta))
	sb := math.Sqrt(beta)
	xs := make([][]float64, len(g.actions))
	for i, a := range g.actions {
		xs[i] = []float64{float64(a.Gen), float64(a.Fact)}
	}
	mean := make([]float64, len(xs))
	sd := make([]float64, len(xs))
	fit.PredictAll(xs, mean, sd)
	best := g.actions[0]
	bestScore := math.Inf(1)
	for i, a := range g.actions {
		if score := mean[i] - sb*sd[i]; score < bestScore {
			best, bestScore = a, score
		}
	}
	return best
}

func (g *GP2D) leastMeasured() Action2D {
	best := g.actions[0]
	cnt := math.MaxInt
	for _, a := range g.actions {
		if c := g.seen[a]; c < cnt {
			best, cnt = a, c
		}
	}
	return best
}
