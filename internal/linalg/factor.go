package linalg

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// NewCholesky factors the symmetric positive definite matrix a. It returns
// ErrNotPositiveDefinite if a pivot is non-positive (to within a small
// tolerance scaled by the matrix magnitude). Only the lower triangle of a
// is read.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		panic("linalg: Cholesky of non-square matrix")
	}
	n := a.rows
	l := NewMatrix(n, n)
	tol := 1e-14 * math.Max(1, a.MaxAbs())
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= tol {
			return nil, ErrNotPositiveDefinite
		}
		l.Set(j, j, math.Sqrt(d))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/l.At(j, j))
		}
	}
	return &Cholesky{l: l}, nil
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }

// Solve solves A·x = b given the factorization A = L·Lᵀ.
func (c *Cholesky) Solve(b []float64) []float64 {
	y := forwardSolve(c.l, b)
	return backSolveTransposed(c.l, y)
}

// LogDet returns log det A = 2·Σ log L[i][i].
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.l.rows; i++ {
		s += math.Log(c.l.At(i, i))
	}
	return 2 * s
}

// QR holds a Householder QR factorization A = Q·R of an m×n matrix with
// m >= n. Q is represented implicitly by the Householder vectors.
type QR struct {
	qr   *Matrix   // Householder vectors below diagonal, R on/above
	rdiy []float64 // diagonal of R
	tol  float64   // rank tolerance scaled to the input magnitude
}

// NewQR factors the m×n matrix a (m >= n) by Householder reflections.
func NewQR(a *Matrix) *QR {
	m, n := a.rows, a.cols
	if m < n {
		panic("linalg: QR requires rows >= cols")
	}
	qr := a.Clone()
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below (and including) the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 { //dplint:ignore floateq exactly-zero column norm means a zero column; the reflector is skipped
			rdiag[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Set(k, k, qr.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Set(i, j, qr.At(i, j)+s*qr.At(i, k))
			}
		}
		rdiag[k] = -nrm
	}
	return &QR{qr: qr, rdiy: rdiag, tol: 1e-12 * math.Max(1, a.MaxAbs()) * float64(m)}
}

// Solve finds the least-squares solution x minimizing ‖A·x − b‖₂.
// It returns ErrSingular if A is rank deficient.
func (f *QR) Solve(b []float64) ([]float64, error) {
	m, n := f.qr.rows, f.qr.cols
	if len(b) != m {
		panic(fmt.Sprintf("linalg: QR.Solve dimension mismatch %d vs %d", len(b), m))
	}
	for _, d := range f.rdiy {
		if math.Abs(d) < f.tol {
			return nil, ErrSingular
		}
	}
	y := make([]float64, m)
	copy(y, b)
	// Apply Householder reflections: y = Qᵀ b.
	for k := 0; k < n; k++ {
		if f.qr.At(k, k) == 0 { //dplint:ignore floateq exactly-zero Householder pivot means no reflection was stored for this column
			continue
		}
		var s float64
		for i := k; i < m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R x = y[:n].
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rdiy[i]
	}
	return x, nil
}

// forwardSolve solves L·y = b for lower-triangular L.
func forwardSolve(l *Matrix, b []float64) []float64 {
	n := l.rows
	if len(b) != n {
		panic("linalg: forwardSolve dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	return y
}

// backSolveTransposed solves Lᵀ·x = y for lower-triangular L.
func backSolveTransposed(l *Matrix, y []float64) []float64 {
	n := l.rows
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

// SolveSPD solves A·x = b for symmetric positive definite A via Cholesky.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b), nil
}

// RidgeSolve returns argmin_x ‖A·x − b‖₂² + lambda·‖x‖₂², solved via the
// normal equations (AᵀA + λI)x = Aᵀb with Cholesky. lambda must be
// non-negative; a positive lambda guarantees solvability.
func RidgeSolve(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		panic("linalg: RidgeSolve requires lambda >= 0")
	}
	g := a.AtA()
	for i := 0; i < g.rows; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	return SolveSPD(g, a.MulVecT(b))
}
