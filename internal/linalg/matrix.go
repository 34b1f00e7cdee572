// Package linalg implements the dense linear algebra the learning
// substrate needs: vectors, row-major matrices, a BLAS-like operation
// subset, the Jacobi eigensolver, and direct factorizations (Cholesky,
// Householder QR) with the triangular solves built on them.
//
// Dimension mismatches are programmer errors and panic; rank and
// conditioning problems are data-dependent and return errors.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotPositiveDefinite is returned by Cholesky when the input is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Matrix is a dense, row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero-filled r×c matrix. It panics if r or c is
// non-positive.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic("linalg: NewMatrix with non-positive dimensions")
	}
	return &Matrix{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from row-major data. The slice is
// copied. It panics if len(data) != r*c.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: NewMatrixFrom data length %d != %d×%d", len(data), r, c))
	}
	m := NewMatrix(r, c)
	copy(m.data, data)
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %d×%d", i, j, m.rows, m.cols))
	}
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic("linalg: Col index out of range")
	}
	out := make([]float64, m.rows)
	for i := range out {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	return NewMatrixFrom(m.rows, m.cols, m.data)
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Add returns m + other element-wise. Dimensions must match.
func (m *Matrix) Add(other *Matrix) *Matrix {
	m.sameShape(other)
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] += v
	}
	return out
}

// Sub returns m − other element-wise. Dimensions must match.
func (m *Matrix) Sub(other *Matrix) *Matrix {
	m.sameShape(other)
	out := m.Clone()
	for i, v := range other.data {
		out.data[i] -= v
	}
	return out
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

func (m *Matrix) sameShape(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("linalg: shape mismatch %d×%d vs %d×%d", m.rows, m.cols, other.rows, other.cols))
	}
}

// Mul returns the matrix product m·other. m.Cols() must equal other.Rows().
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("linalg: Mul inner dimension mismatch %d vs %d", m.cols, other.rows))
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 { //dplint:ignore floateq sparsity skip: an exactly-zero factor contributes nothing either way
				continue
			}
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			rowB := other.data[k*other.cols : (k+1)*other.cols]
			for j, b := range rowB {
				rowOut[j] += a * b
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x. len(x) must equal m.Cols().
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MulVecT returns mᵀ·x without forming the transpose. len(x) must equal
// m.Rows().
func (m *Matrix) MulVecT(x []float64) []float64 {
	if len(x) != m.rows {
		panic(fmt.Sprintf("linalg: MulVecT dimension mismatch %d vs %d", len(x), m.rows))
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { //dplint:ignore floateq sparsity skip: an exactly-zero factor contributes nothing either way
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

// AtA returns mᵀ·m (the Gram matrix), exploiting symmetry.
func (m *Matrix) AtA() *Matrix {
	out := NewMatrix(m.cols, m.cols)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for a := 0; a < m.cols; a++ {
			ra := row[a]
			if ra == 0 { //dplint:ignore floateq sparsity skip: an exactly-zero factor contributes nothing either way
				continue
			}
			for b := a; b < m.cols; b++ {
				out.data[a*out.cols+b] += ra * row[b]
			}
		}
	}
	for a := 0; a < m.cols; a++ {
		for b := 0; b < a; b++ {
			out.data[a*out.cols+b] = out.data[b*out.cols+a]
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric to within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute entry.
func (m *Matrix) MaxAbs() float64 {
	var s float64
	for _, v := range m.data {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}
