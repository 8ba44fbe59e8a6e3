package gp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"phasetune/internal/linalg"
)

// ChainFit is a Gaussian process with the exponential kernel
// (Equation 3) conditioned on 1-D integer inputs through the kernel's
// Markov structure, the state-space view of temporal GPs (Hartikainen &
// Särkkä, MLSP 2010). Over ascending inputs t1 < … < tn the process is
// an Ornstein–Uhlenbeck chain: with ρi = exp(−(ti+1 − ti)/θ) and
// si = 1/(1 − ρi²), the prior covariance C has the tridiagonal inverse
//
//	C⁻¹ = (1/α)·tridiag(−ρi·si; s1, si−1 + ρi²·si, sn−1; −ρi·si)
//
// (1/α alone for n = 1). With the noise D = diag((σ² + jitter)/ki) and
// K = C + D,
//
//	K⁻¹v = D⁻¹(C⁻¹ + D⁻¹)⁻¹C⁻¹v
//
// costs one tridiagonal product, one tridiagonal LDLᵀ solve and a
// scaling, and subtracts no large terms. Predictions condition one
// chain over the union of the conditioning and predicted inputs, where
// a predicted input carries no noise precision: its latent posterior
// mean and variance come from one factorization of
// T = C∪⁻¹ + D∪⁻¹, with no solve per predicted input. A fit and its
// predictions at m inputs cost O((n+m)·p) for p basis functions, where
// FitModel and Fit.PredictAll cost O(n³ + m·n²). In exact arithmetic
// the posterior is theirs but for the trend's ridge (see FitChain).
type ChainFit struct {
	kern  Exponential
	basis []BasisFunc
	xs    []int          // conditioning inputs, ascending
	prec  []float64      // their noise precisions ki/(σ² + jitter)
	resid []float64      // y − Fγ at each conditioning input
	fx    []float64      // basis j at xs[i] in fx[j*n+i]
	gamma []float64      // GLS trend coefficients
	fginv *linalg.Matrix // (FᵀK⁻¹F)⁻¹, nil without trend
	arg   [1]float64     // the argument handed to the basis functions

	// Storage reused by the next fit that takes this one from chainPool.
	order, merge []int
	state, work  []float64
}

// chainPool recycles chain fits and their storage, as factorPool does
// the dense factors.
var chainPool sync.Pool

// FitChain conditions the GP on one observation per distinct integer
// input, ys[i] at xs[i] with noise variance (Noise + jitter)/Reps[i], as
// FitModel does, through the exponential kernel's tridiagonal
// precision. The GLS trend solves the same normal equations as
// FitModel's, with a ridge of 1e-10·(1 + [FᵀK⁻¹F]dd) on diagonal entry
// d where FitModel adds 1e-10. The kernel must be Exponential with
// positive Alpha and Theta, and no input may appear twice.
func (m Model) FitChain(xs []int, ys []float64) (*ChainFit, error) {
	n := len(xs)
	if err := m.check(n, ys); err != nil {
		return nil, err
	}
	kern, ok := m.Kernel.(Exponential)
	if !ok {
		return nil, fmt.Errorf("gp: the chain solver needs the exponential kernel, not %T", m.Kernel)
	}
	if !(kern.Alpha > 0 && kern.Theta > 0) {
		return nil, fmt.Errorf("gp: the chain solver needs alpha and theta > 0, not %v and %v", kern.Alpha, kern.Theta)
	}
	f, _ := chainPool.Get().(*ChainFit)
	if f == nil {
		f = new(ChainFit)
	}
	p := len(m.Basis)
	f.kern, f.basis = kern, m.Basis

	f.order = resize(f.order, n)
	for i := range f.order {
		f.order[i] = i
	}
	slices.SortFunc(f.order, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })
	// The fit's state, then the chain and the K⁻¹ columns of the GLS.
	f.state = resize(f.state, (p+2)*n)
	f.prec, f.resid, f.fx = f.state[:n], f.state[n:2*n], f.state[2*n:]
	f.work = resize(f.work, (p+5)*n)
	diag, off, piv, low := f.work[:n], f.work[n:2*n-1], f.work[2*n:3*n], f.work[3*n:4*n-1]
	kinv := f.work[4*n:]
	f.xs = resize(f.xs, n)
	jitter := jitterFrac * (kern.Alpha + 1)
	for i, o := range f.order {
		if i > 0 && xs[o] == f.xs[i-1] {
			f.Release()
			return nil, fmt.Errorf("gp: chain input %d appears twice", xs[o])
		}
		f.xs[i] = xs[o]
		reps := 1
		if m.Reps != nil {
			reps = m.Reps[o]
		}
		f.prec[i] = float64(reps) / (m.Noise + jitter)
		f.resid[i] = ys[o]
		f.arg[0] = float64(xs[o])
		for j, g := range m.Basis {
			f.fx[j*n+i] = g(f.arg[:])
		}
	}

	if p > 0 {
		kern.chainPrecision(f.xs, diag, off)
		if err := factorChain(diag, off, f.prec, piv, low); err != nil {
			f.Release()
			return nil, err
		}
		// K⁻¹ of every basis column and of y, in kinv's p+1 rows.
		for j := 0; j <= p; j++ {
			v := f.resid
			if j < p {
				v = f.fx[j*n : (j+1)*n]
			}
			row := kinv[j*n : (j+1)*n]
			mulChain(diag, off, v, row)
			solveChain(piv, low, row)
			for i := range row {
				row[i] *= f.prec[i]
			}
		}
		ftKinvF := linalg.NewMatrix(p, p)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				ftKinvF.Set(a, b, linalg.Dot(f.fx[a*n:(a+1)*n], kinv[b*n:(b+1)*n]))
			}
		}
		// Ridge-stabilize, for dummy columns collinear with the
		// observed design, by FitModel's 1e-10 plus 1e-10 of the
		// column's own scale. FitModel's absolute ridge alone sinks
		// below the rounding of FᵀK⁻¹F when K⁻¹ is large, as with
		// noise-free durations, whose replicates leave only the jitter
		// as noise: collinear columns are then resolved by rounding.
		for d := 0; d < p; d++ {
			ftKinvF.Add(d, d, 1e-10*(1+ftKinvF.At(d, d)))
		}
		fginv, err := linalg.Inverse(ftKinvF)
		if err != nil {
			f.Release()
			return nil, fmt.Errorf("gp: trend normal equations singular: %w", err)
		}
		fty := make([]float64, p)
		for a := range fty {
			fty[a] = linalg.Dot(f.fx[a*n:(a+1)*n], kinv[p*n:])
		}
		f.gamma = linalg.MulVec(fginv, fty)
		f.fginv = fginv
		for i := range f.resid {
			s := 0.0
			for j, c := range f.gamma {
				s += f.fx[j*n+i] * c
			}
			f.resid[i] -= s
		}
	}
	return f, nil
}

// PredictAll writes the kriging mean and standard deviation of the
// latent function at every input xs[r] into mean[r] and sd[r]. The
// inputs must be strictly increasing. When it fails it writes nothing.
func (f *ChainFit) PredictAll(xs []int, mean, sd []float64) error {
	if len(mean) != len(xs) || len(sd) != len(xs) {
		panic("gp: PredictAll output length mismatch")
	}
	n, m, p := len(f.xs), len(xs), len(f.basis)
	for r := 1; r < m; r++ {
		if xs[r] <= xs[r-1] {
			panic("gp: PredictAll inputs not strictly increasing")
		}
	}
	// Merge the conditioning and predicted inputs into one ascending
	// chain. at[i] is the chain node of conditioning input i, and
	// at[n+r] that of predicted input r.
	f.merge = resize(f.merge, 2*(n+m))
	at, nodes := f.merge[:n+m], f.merge[n+m:n+m]
	for i, r := 0, 0; i < n || r < m; {
		switch {
		case r == m || (i < n && f.xs[i] < xs[r]):
			at[i] = len(nodes)
			nodes = append(nodes, f.xs[i])
			i++
		case i == n || xs[r] < f.xs[i]:
			at[n+r] = len(nodes)
			nodes = append(nodes, xs[r])
			r++
		default:
			at[i], at[n+r] = len(nodes), len(nodes)
			nodes = append(nodes, xs[r])
			i, r = i+1, r+1
		}
	}
	nn := len(nodes)
	f.work = resize(f.work, (p+7)*nn+3*p)
	w := f.work
	diag, off, prec := w[:nn], w[nn:2*nn-1], w[2*nn:3*nn]
	piv, low, sig := w[3*nn:4*nn], w[4*nn:5*nn-1], w[5*nn:6*nn]
	// Right-hand sides D∪⁻¹(y − Fγ) and D∪⁻¹F, one row each; a
	// predicted-only node has no noise precision.
	rhs := w[6*nn : (p+7)*nn]
	fxr, u, fu := w[(p+7)*nn:(p+7)*nn+p], w[(p+7)*nn+p:(p+7)*nn+2*p], w[(p+7)*nn+2*p:]
	for i, q := range at[:n] {
		prec[q] = f.prec[i]
		rhs[q] = f.prec[i] * f.resid[i]
		for j := 0; j < p; j++ {
			rhs[(j+1)*nn+q] = f.prec[i] * f.fx[j*n+i]
		}
	}
	f.kern.chainPrecision(nodes, diag, off)
	if err := factorChain(diag, off, prec, piv, low); err != nil {
		return err
	}
	for j := 0; j <= p; j++ {
		solveChain(piv, low, rhs[j*nn:(j+1)*nn])
	}
	// diag(T⁻¹) in one backward pass over T = LΛLᵀ.
	sig[nn-1] = 1 / piv[nn-1]
	for i := nn - 2; i >= 0; i-- {
		sig[i] = 1/piv[i] + low[i]*low[i]*sig[i+1]
	}

	for r, x := range xs {
		q := at[n+r]
		mu, variance := rhs[q], sig[q]
		if p > 0 {
			f.arg[0] = float64(x)
			for j, g := range f.basis {
				fxr[j] = g(f.arg[:])
			}
			mu += linalg.Dot(fxr, f.gamma)
			// Universal kriging variance inflation:
			// u = f(x) − FᵀK⁻¹k*, add uᵀ(FᵀK⁻¹F)⁻¹u.
			for j := range u {
				u[j] = fxr[j] - rhs[(j+1)*nn+q]
			}
			for j := range fu {
				fu[j] = linalg.Dot(f.fginv.Data[j*p:(j+1)*p], u)
			}
			variance += linalg.Dot(u, fu)
		}
		if variance < 0 {
			variance = 0
		}
		mean[r], sd[r] = mu, math.Sqrt(variance)
	}
	return nil
}

// Release hands the fit's storage to later fits. The fit must not be
// used afterwards.
func (f *ChainFit) Release() {
	f.basis, f.gamma, f.fginv = nil, nil, nil
	chainPool.Put(f)
}

// chainPrecision writes the prior precision C⁻¹ of the kernel over
// ascending integer inputs ts: its diagonal to diag and its
// sub-diagonal, entry (i+1, i), to off. The diagonal is summed from
// positive terms, 1 + ρ1²·s1 = s1 first and si−1 + ρi²·si after.
func (k Exponential) chainPrecision(ts []int, diag, off []float64) {
	clear(diag)
	diag[0] = 1
	for i := range off {
		d := float64(ts[i+1]-ts[i]) / k.Theta
		rho := math.Exp(-d)
		s := -1 / math.Expm1(-2*d) // 1/(1 − ρ²)
		off[i] = -rho * s / k.Alpha
		diag[i] += rho * rho * s
		diag[i+1] += s
	}
	for i := range diag {
		diag[i] /= k.Alpha
	}
}

// factorChain writes the LDLᵀ factors of T = Q + diag(prec), for Q the
// tridiagonal matrix with diagonal diag and sub-diagonal off: the
// pivots piv and L's sub-diagonal low. It fails unless every pivot is
// positive and finite.
func factorChain(diag, off, prec, piv, low []float64) error {
	piv[0] = diag[0] + prec[0]
	for i := range off {
		low[i] = off[i] / piv[i]
		piv[i+1] = diag[i+1] + prec[i+1] - low[i]*off[i]
	}
	for i, d := range piv {
		if !(d > 0) || math.IsInf(d, 1) {
			return fmt.Errorf("gp: chain precision not positive definite at node %d (pivot %v)", i, d)
		}
	}
	return nil
}

// mulChain writes Qv to dst, for Q the tridiagonal matrix with diagonal
// diag and sub-diagonal off.
func mulChain(diag, off, v, dst []float64) {
	for i := range dst {
		s := diag[i] * v[i]
		if i > 0 {
			s += off[i-1] * v[i-1]
		}
		if i < len(off) {
			s += off[i] * v[i+1]
		}
		dst[i] = s
	}
}

// solveChain overwrites b with T⁻¹b, given T's LDLᵀ factors.
func solveChain(piv, low, b []float64) {
	for i := 1; i < len(b); i++ {
		b[i] -= low[i-1] * b[i-1]
	}
	last := len(b) - 1
	b[last] /= piv[last]
	for i := last - 1; i >= 0; i-- {
		b[i] = b[i]/piv[i] - low[i]*b[i+1]
	}
}

// resize returns s with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T int | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
