package gp

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"phasetune/internal/linalg"
)

// BasisFunc is one trend basis function g_i(x); the trend is
// mu(x) = sum_i gamma_i * g_i(x) with coefficients estimated by
// generalized least squares, as in universal kriging.
type BasisFunc func(x []float64) float64

// ConstantBasis returns g(x) = 1 (ordinary kriging trend).
func ConstantBasis() BasisFunc { return func([]float64) float64 { return 1 } }

// LinearBasis returns g(x) = x[dim], the linear trend of the paper's
// GP-discontinuous model (the 1/x part being captured by the LP baseline).
func LinearBasis(dim int) BasisFunc { return func(x []float64) float64 { return x[dim] } }

// IndicatorBasis returns the dummy variable g(x) = 1 when
// pred(x) is true and 0 otherwise; the paper uses one per homogeneous
// machine group to model discontinuities.
func IndicatorBasis(pred func(x []float64) bool) BasisFunc {
	return func(x []float64) float64 {
		if pred(x) {
			return 1
		}
		return 0
	}
}

// Model specifies a Gaussian-Process prior: a stationary kernel, an
// observation noise variance, and a trend basis. A nil/empty Basis means a
// zero-mean GP (what the paper calls "no particular trend": predictions
// revert to 0 away from data, as in its Figure 3).
type Model struct {
	Kernel Kernel
	Noise  float64 // observation noise variance sigma_N^2
	// Reps, when set, gives each conditioning point the number of
	// observations it is the mean of: point i then has noise variance
	// Noise/Reps[i], DiceKriging's noise.var for a mean of replicates.
	// Nil means one observation per point.
	Reps  []int
	Basis []BasisFunc
}

// Fit is a conditioned Gaussian process ready for prediction.
type Fit struct {
	model  Model
	uniq   [][]float64    // distinct conditioning inputs, first occurrence first
	ids    []int          // observation i was taken at uniq[ids[i]]
	chol   *linalg.Matrix // Cholesky factor L of K + noise*I
	cholT  *linalg.Matrix // L^T, row-major, for the back substitutions
	gamma  []float64      // GLS trend coefficients
	resid  []float64      // K^-1 (y - F gamma)
	fginv  *linalg.Matrix // (F^T K^-1 F)^-1, nil without trend
	kinvFT *linalg.Matrix // (K^-1 F)^T, one row per basis function; nil without trend
	logLik float64
	nObs   int
}

// ErrNoData reports a fit attempted with no observations.
var ErrNoData = errors.New("gp: no observations")

// jitterFrac stabilizes the covariance Cholesky for near-duplicate points.
const jitterFrac = 1e-10

// FitModel conditions the GP on observations (xs[i], ys[i]). The
// kernel is evaluated once per pair of distinct inputs: replicated
// inputs share their covariances.
func (m Model) FitModel(xs [][]float64, ys []float64) (*Fit, error) {
	n := len(xs)
	if err := m.check(n, ys); err != nil {
		return nil, err
	}
	jitter := jitterFrac * (m.Kernel.Variance() + 1)
	ids, uniq := groupInputs(xs)
	nu := len(uniq)
	cov := make([]float64, nu*nu)
	for a := 0; a < nu; a++ {
		for b := 0; b <= a; b++ {
			v := m.Kernel.Cov(Distance(uniq[a], uniq[b]))
			cov[a*nu+b] = v
			cov[b*nu+a] = v
		}
	}
	// Cholesky reads only the lower triangle. A mean of k replicates
	// takes 1/k of the noise and of the jitter, so conditioning on means
	// gives the posterior of conditioning on every replicate, in exact
	// arithmetic.
	k := getMatrix(&factorPool, n, n)
	for i := 0; i < n; i++ {
		ci := cov[ids[i]*nu : (ids[i]+1)*nu]
		row := k.Data[i*n : i*n+i+1]
		for j := range row {
			row[j] = ci[ids[j]]
		}
		reps := 1
		if m.Reps != nil {
			reps = m.Reps[i]
		}
		row[i] += (m.Noise + jitter) / float64(reps)
	}
	chol := getMatrix(&factorPool, n, n)
	if err := linalg.CholeskyTo(chol, k); err != nil {
		factorPool.Put(k)
		factorPool.Put(chol)
		return nil, fmt.Errorf("gp: covariance not positive definite: %w", err)
	}

	// The back substitutions read L^T by rows. K is spent, so its
	// storage takes the copy.
	cholT := k
	for i := 0; i < n; i++ {
		row := cholT.Data[i*n : (i+1)*n]
		for j := range row {
			row[j] = chol.Data[j*n+i]
		}
	}
	f := &Fit{model: m, uniq: deepCopy(uniq), ids: ids, chol: chol, cholT: cholT, nObs: n}

	p := len(m.Basis)
	resid := append([]float64(nil), ys...)
	if p > 0 {
		// Trend design matrix, transposed: row j holds basis j at every
		// input. One block solve yields K^-1 F and K^-1 y.
		ft := linalg.NewMatrix(p, n)
		for i, x := range xs {
			for j, g := range m.Basis {
				ft.Set(j, i, g(x))
			}
		}
		sol := linalg.NewMatrix(p+1, n)
		copy(sol.Data, ft.Data)
		copy(sol.Data[p*n:], ys)
		linalg.CholSolveRows(chol, cholT, sol)
		kinvFT := &linalg.Matrix{Rows: p, Cols: n, Data: sol.Data[:p*n]}
		kinvY := sol.Data[p*n:]
		ftKinvF := linalg.Mul(ft, kinvFT.T()) // p x p
		// Ridge-stabilize in case dummy columns are collinear with the
		// observed design (few points early in the exploration).
		for d := 0; d < p; d++ {
			ftKinvF.Add(d, d, 1e-10)
		}
		fginv, err := linalg.Inverse(ftKinvF)
		if err != nil {
			f.Release()
			return nil, fmt.Errorf("gp: trend normal equations singular: %w", err)
		}
		fty := linalg.MulVec(ft, kinvY)
		gamma := linalg.MulVec(fginv, fty)
		// Residual y - F gamma.
		fg := linalg.MulVec(ft.T(), gamma)
		for i := range resid {
			resid[i] -= fg[i]
		}
		f.gamma = gamma
		f.fginv = fginv
		f.kinvFT = kinvFT
	}
	f.resid = append([]float64(nil), resid...)
	linalg.CholSolveRows(chol, cholT, &linalg.Matrix{Rows: 1, Cols: n, Data: f.resid})

	// Log marginal likelihood (up to the GLS plug-in for the trend).
	quad := 0.0
	for i := range resid {
		quad += resid[i] * f.resid[i]
	}
	f.logLik = -0.5*quad - 0.5*linalg.LogDetFromChol(chol) -
		0.5*float64(n)*math.Log(2*math.Pi)
	return f, nil
}

// check validates the model for a fit on n inputs with observations ys.
func (m Model) check(n int, ys []float64) error {
	if n == 0 {
		return ErrNoData
	}
	if len(ys) != n {
		return fmt.Errorf("gp: %d inputs but %d observations", n, len(ys))
	}
	if m.Kernel == nil {
		return errors.New("gp: nil kernel")
	}
	if m.Noise < 0 {
		return fmt.Errorf("gp: negative noise variance %v", m.Noise)
	}
	if m.Reps != nil && len(m.Reps) != n {
		return fmt.Errorf("gp: %d inputs but %d replicate counts", n, len(m.Reps))
	}
	for i, r := range m.Reps {
		if r < 1 {
			return fmt.Errorf("gp: point %d is the mean of %d observations", i, r)
		}
	}
	return nil
}

// Predict returns the kriging mean and standard deviation of the latent
// function f at x (noise-free prediction).
func (f *Fit) Predict(x []float64) (mean, sd float64) {
	var m, s [1]float64
	f.PredictAll([][]float64{x}, m[:], s[:])
	return m[0], s[0]
}

// PredictAll writes the kriging mean and standard deviation of the
// latent function f at every input xs[r] into mean[r] and sd[r]. All
// inputs share one block triangular solve, and nothing is allocated
// per input; every result is bit-identical to predicting its input
// alone.
func (f *Fit) PredictAll(xs [][]float64, mean, sd []float64) {
	if len(mean) != len(xs) || len(sd) != len(xs) {
		panic("gp: PredictAll output length mismatch")
	}
	n, nu, p := f.nObs, len(f.uniq), len(f.model.Basis)
	// Row r of kstar holds the covariances between xs[r] and every
	// observation: the kernel runs once per distinct input.
	kstar := getMatrix(&predictPool, len(xs), n)
	kd := make([]float64, nu)
	for r, x := range xs {
		for u, xu := range f.uniq {
			kd[u] = f.model.Kernel.Cov(Distance(x, xu))
		}
		row := kstar.Data[r*n : (r+1)*n]
		for i, id := range f.ids {
			row[i] = kd[id]
		}
	}
	kinvK := getMatrix(&predictPool, len(xs), n)
	copy(kinvK.Data, kstar.Data)
	linalg.CholSolveRows(f.chol, f.cholT, kinvK)

	scratch := make([]float64, 3*p)
	fx, u, fu := scratch[:p], scratch[p:2*p], scratch[2*p:]
	for r, x := range xs {
		ks := kstar.Data[r*n : (r+1)*n]
		m := linalg.Dot(ks, f.resid)
		variance := f.model.Kernel.Variance() - linalg.Dot(ks, kinvK.Data[r*n:(r+1)*n])
		if p > 0 {
			for j, g := range f.model.Basis {
				fx[j] = g(x)
			}
			m += linalg.Dot(fx, f.gamma)
			// Universal kriging variance inflation:
			// u = f(x) - F^T K^-1 k*, add u^T (F^T K^-1 F)^-1 u.
			for j := range u {
				s := fx[j]
				for i, w := range f.kinvFT.Data[j*n : (j+1)*n] {
					s -= w * ks[i]
				}
				u[j] = s
			}
			// fu = (F^T K^-1 F)^-1 u, summed as MulVec sums.
			for j := range fu {
				s := 0.0
				for i, w := range f.fginv.Data[j*p : (j+1)*p] {
					s += w * u[i]
				}
				fu[j] = s
			}
			variance += linalg.Dot(u, fu)
		}
		if variance < 0 {
			variance = 0
		}
		mean[r], sd[r] = m, math.Sqrt(variance)
	}
	predictPool.Put(kstar)
	predictPool.Put(kinvK)
}

// Release hands the fit's factors to later fits. The fit must not be
// used afterwards.
func (f *Fit) Release() {
	factorPool.Put(f.chol)
	factorPool.Put(f.cholT)
	f.chol, f.cholT = nil, nil
}

// The n×n factors of fits (K, whose storage then holds L^T, and L) and
// the m×n blocks of predictions (k* and K^-1 k*) are recycled: late in
// a long session they are most of what a proposal allocates, and at a
// small live heap that garbage sets the collector's pace. The pools
// are shared, since sessions never leave a process; buffers are sized
// up to a power of two, so a history that grows by one entry per
// proposal reuses them.
var factorPool, predictPool sync.Pool

// getMatrix returns a zeroed r×c matrix from pool.
func getMatrix(pool *sync.Pool, r, c int) *linalg.Matrix {
	n := r * c
	m, _ := pool.Get().(*linalg.Matrix)
	if m == nil || cap(m.Data) < n {
		size := 1
		for size < n {
			size <<= 1
		}
		m = &linalg.Matrix{Data: make([]float64, 0, size)}
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:n]
	clear(m.Data)
	return m
}

// LogLikelihood returns the log marginal likelihood of the fit.
func (f *Fit) LogLikelihood() float64 { return f.logLik }

// TrendCoefficients returns a copy of the estimated trend coefficients
// (nil for a zero-mean GP).
func (f *Fit) TrendCoefficients() []float64 {
	return append([]float64(nil), f.gamma...)
}

// NumObservations returns the number of conditioning points.
func (f *Fit) NumObservations() int { return f.nObs }

// deepCopy copies xs into one backing array.
func deepCopy(xs [][]float64) [][]float64 {
	size := 0
	for _, x := range xs {
		size += len(x)
	}
	flat := make([]float64, 0, size)
	out := make([][]float64, len(xs))
	for i, x := range xs {
		flat = append(flat, x...)
		out[i] = flat[len(flat)-len(x) : len(flat) : len(flat)]
	}
	return out
}

// X1 is a convenience constructor for 1-D inputs.
func X1(xs ...float64) [][]float64 {
	out := make([][]float64, len(xs))
	for i, x := range xs {
		out[i] = []float64{x}
	}
	return out
}
