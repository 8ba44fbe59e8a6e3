package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization encountered
// a non-positive pivot.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L with A = L*L^T for a
// symmetric positive-definite matrix A. Only the lower triangle of A is
// read. The input is not modified.
func Cholesky(a *Matrix) (*Matrix, error) {
	l := NewMatrix(a.Rows, a.Rows)
	if err := CholeskyTo(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyTo is Cholesky writing L into l, a zeroed matrix of A's
// shape, so a caller can recycle the factor's storage. On error l
// holds a partial factor.
//
// Column j is computed four rows at a time: the four dot products over
// row slices are independent chains, so they overlap, and each still
// subtracts its terms in ascending k exactly as a one-row loop would.
func CholeskyTo(l, a *Matrix) error {
	if a.Rows != a.Cols {
		panic("linalg: Cholesky on non-square matrix")
	}
	n := a.Rows
	if l.Rows != n || l.Cols != n {
		panic("linalg: CholeskyTo factor shape mismatch")
	}
	for j := 0; j < n; j++ {
		lj := l.Data[j*n : j*n+j]
		// row returns the first j elements of row i, the terms its
		// element in column j subtracts.
		row := func(i int) []float64 { return l.Data[i*n : i*n+j][:len(lj)] }
		d := a.At(j, j)
		for _, v := range lj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPositiveDefinite
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		i := j + 1
		for ; i+4 <= n; i += 4 {
			r0, r1, r2, r3 := row(i), row(i+1), row(i+2), row(i+3)
			s0, s1, s2, s3 := a.At(i, j), a.At(i+1, j), a.At(i+2, j), a.At(i+3, j)
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			l.Set(i, j, s0/d)
			l.Set(i+1, j, s1/d)
			l.Set(i+2, j, s2/d)
			l.Set(i+3, j, s3/d)
		}
		for ; i < n; i++ {
			ri := row(i)
			s := a.At(i, j)
			for k, v := range lj {
				s -= ri[k] * v
			}
			l.Set(i, j, s/d)
		}
	}
	return nil
}

// CholSolveRows is the triangular-solve kernel: given the Cholesky
// factor l of A and lt = l.T(), it overwrites every row b of rhs with
// the solution x of A*x = b, by forward substitution with l and then
// back substitution with lt. Both sweeps read matrix rows; lt stands in
// for walking down l's columns. Right-hand sides are solved four at a
// time, so their dependent subtract chains overlap. Every solution is
// bit-identical to solving its right-hand side alone: each element is
// b[i] minus the same products, subtracted in the same order, divided
// by the same pivot.
func CholSolveRows(l, lt, rhs *Matrix) {
	n := l.Rows
	if l.Cols != n || lt.Rows != n || lt.Cols != n || rhs.Cols != n {
		panic("linalg: CholSolveRows dimension mismatch")
	}
	x := func(r int) []float64 { return rhs.Data[r*n : (r+1)*n] }
	r := 0
	for ; r+4 <= rhs.Rows; r += 4 {
		lower4(l, x(r), x(r+1), x(r+2), x(r+3))
		upper4(lt, x(r), x(r+1), x(r+2), x(r+3))
	}
	for ; r < rhs.Rows; r++ {
		lower1(l, x(r))
		upper1(lt, x(r))
	}
}

// lower4 solves L*x = b in place for four right-hand sides, L lower
// triangular and row-major.
func lower4(l *Matrix, x0, x1, x2, x3 []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		row := l.Data[i*n : i*n+i]
		y0, y1, y2, y3 := x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for j, v := range row {
			s0 -= v * y0[j]
			s1 -= v * y1[j]
			s2 -= v * y2[j]
			s3 -= v * y3[j]
		}
		d := l.Data[i*n+i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// lower1 is lower4 for one right-hand side.
func lower1(l *Matrix, x []float64) {
	n := l.Rows
	for i := 0; i < n; i++ {
		row := l.Data[i*n : i*n+i]
		y := x[:len(row)]
		s := x[i]
		for j, v := range row {
			s -= v * y[j]
		}
		x[i] = s / l.Data[i*n+i]
	}
}

// upper4 solves U*x = b in place for four right-hand sides, U upper
// triangular and row-major, from the last row up.
func upper4(u *Matrix, x0, x1, x2, x3 []float64) {
	n := u.Rows
	for i := n - 1; i >= 0; i-- {
		row := u.Data[i*n+i+1 : (i+1)*n]
		y0, y1, y2, y3 := x0[i+1:][:len(row)], x1[i+1:][:len(row)], x2[i+1:][:len(row)], x3[i+1:][:len(row)]
		s0, s1, s2, s3 := x0[i], x1[i], x2[i], x3[i]
		for j, v := range row {
			s0 -= v * y0[j]
			s1 -= v * y1[j]
			s2 -= v * y2[j]
			s3 -= v * y3[j]
		}
		d := u.Data[i*n+i]
		x0[i], x1[i], x2[i], x3[i] = s0/d, s1/d, s2/d, s3/d
	}
}

// upper1 is upper4 for one right-hand side.
func upper1(u *Matrix, x []float64) {
	n := u.Rows
	for i := n - 1; i >= 0; i-- {
		row := u.Data[i*n+i+1 : (i+1)*n]
		y := x[i+1:][:len(row)]
		s := x[i]
		for j, v := range row {
			s -= v * y[j]
		}
		x[i] = s / u.Data[i*n+i]
	}
}

// SolveLower solves L*x = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	if l.Rows != l.Cols || len(b) != l.Rows {
		panic("linalg: SolveLower dimension mismatch")
	}
	x := append([]float64(nil), b...)
	lower1(l, x)
	return x
}

// SolveUpperT solves L^T*x = b for lower-triangular L (that is, an upper
// triangular system with matrix L^T) by backward substitution.
func SolveUpperT(l *Matrix, b []float64) []float64 {
	if l.Rows != l.Cols || len(b) != l.Rows {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	x := append([]float64(nil), b...)
	upper1(l.T(), x)
	return x
}

// CholSolve solves A*x = b given the Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	if len(b) != l.Rows {
		panic("linalg: CholSolve dimension mismatch")
	}
	x := &Matrix{Rows: 1, Cols: len(b), Data: append([]float64(nil), b...)}
	CholSolveRows(l, l.T(), x)
	return x.Data
}

// CholSolveMatrix solves A*X = B column by column given the Cholesky
// factor L of A.
func CholSolveMatrix(l *Matrix, b *Matrix) *Matrix {
	if l.Rows != b.Rows {
		panic("linalg: CholSolveMatrix dimension mismatch")
	}
	x := b.T()
	CholSolveRows(l, l.T(), x)
	return x.T()
}

// LogDetFromChol returns log(det(A)) given the Cholesky factor L of A,
// computed as 2*sum(log(L[i][i])).
func LogDetFromChol(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// Inverse returns the inverse of a symmetric positive-definite matrix via
// its Cholesky factorization.
func Inverse(a *Matrix) (*Matrix, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolveMatrix(l, Identity(a.Rows)), nil
}

// SolveSPD solves A*x = b for symmetric positive-definite A.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, b), nil
}
