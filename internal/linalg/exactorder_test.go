package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The one-at-a-time reference loops: one row of the factor per inner
// product, one right-hand side per solve, and back substitution
// walking down the columns of L. The blocked kernels must reproduce
// their every bit.

func refCholesky(a *Matrix) *Matrix {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return l
}

func refCholSolve(l *Matrix, b []float64) []float64 {
	n := l.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBlockedKernelsExactOrder checks the four-row Cholesky and the
// four-wide block solve bit for bit against the one-at-a-time loops,
// over sizes that leave every remainder of four and block widths that
// leave every tail.
func TestBlockedKernelsExactOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 23; n++ {
		a := randomSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(l.Data, refCholesky(a).Data) {
			t.Fatalf("n=%d: Cholesky factor differs from the one-row loop", n)
		}
		for m := 1; m <= 9; m++ {
			rhs := NewMatrix(m, n)
			for i := range rhs.Data {
				rhs.Data[i] = rng.NormFloat64()
			}
			want := make([][]float64, m)
			for r := range want {
				want[r] = refCholSolve(l, rhs.Data[r*n:(r+1)*n])
			}
			CholSolveRows(l, l.T(), rhs)
			for r := range want {
				if !sameBits(rhs.Data[r*n:(r+1)*n], want[r]) {
					t.Fatalf("n=%d m=%d: row %d differs from the one-column solve", n, m, r)
				}
			}
		}
	}
}
