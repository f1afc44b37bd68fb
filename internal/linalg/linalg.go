package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Resize reshapes m to rows×cols, reusing Data's capacity when possible, and
// zeroes every element. It is the reuse seam for callers that rebuild a
// matrix of (roughly) the same shape many times, e.g. per-iteration kernel
// matrices.
func (m *Matrix) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	m.Rows, m.Cols = rows, cols
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
		return
	}
	m.Data = m.Data[:n]
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// ErrNotPositiveDefinite reports a Cholesky factorization failure.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky computes the lower-triangular L with L·Lᵀ = m for a symmetric
// positive-definite m. Only the lower triangle of m is read.
func Cholesky(m *Matrix) (*Matrix, error) {
	l := &Matrix{}
	if err := CholeskyInto(l, m); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto is Cholesky writing the factor into l, reusing l's storage
// when it is large enough. On error l's contents are unspecified.
func CholeskyInto(l, m *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: cholesky of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	l.Resize(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return ErrNotPositiveDefinite
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return nil
}

// growVec returns a length-n slice reusing dst's capacity when possible.
func growVec(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// SolveLowerInto solves L·x = b for lower-triangular L by forward
// substitution, writing x into dst (grown as needed). dst must not alias b.
func SolveLowerInto(dst []float64, l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := growVec(dst, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveUpperInto solves Lᵀ·x = b (L lower-triangular) by back substitution,
// writing x into dst (grown as needed). dst may alias b: element i is read
// before it is overwritten and never read again.
func SolveUpperInto(dst []float64, l *Matrix, b []float64) []float64 {
	n := l.Rows
	x := growVec(dst, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholSolve solves m·x = b given the Cholesky factor L of m.
func CholSolve(l *Matrix, b []float64) []float64 {
	return CholSolveInto(nil, l, b)
}

// CholSolveInto is CholSolve writing into dst (grown as needed): the forward
// solve lands in dst and the back substitution then runs in place on it.
func CholSolveInto(dst []float64, l *Matrix, b []float64) []float64 {
	dst = SolveLowerInto(dst, l, b)
	return SolveUpperInto(dst, l, dst)
}

// LeastSquares solves min ‖A·x − b‖₂ via the normal equations with a small
// Tikhonov ridge for numerical safety. A must have at least as many rows as
// columns.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows < a.Cols {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: rhs length %d for %d rows", len(b), a.Rows)
	}
	// Form AᵀA and Aᵀb directly from A's rows: (AᵀA)ᵢⱼ = Σₖ AₖᵢAₖⱼ is
	// symmetric, so only the lower triangle is accumulated — one pass over A,
	// no explicit transpose matrix. Per-element terms still accumulate in
	// ascending k, matching the result of the old Aᵀ·A product exactly.
	n := a.Cols
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for k := 0; k < a.Rows; k++ {
		row := a.Data[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			v := row[i]
			if v == 0 {
				continue
			}
			dst := ata.Data[i*n : i*n+i+1]
			for j := range dst {
				dst[j] += v * row[j]
			}
		}
		bk := b[k]
		for i, v := range row {
			atb[i] += v * bk
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ata.Data[i*n+j] = ata.Data[j*n+i]
		}
	}
	const ridge = 1e-12
	for i := 0; i < n; i++ {
		ata.Set(i, i, ata.At(i, i)+ridge*(1+ata.At(i, i)))
	}
	l, err := Cholesky(ata)
	if err != nil {
		return nil, err
	}
	return CholSolve(l, atb), nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
