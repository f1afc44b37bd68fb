package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// mul returns a×b, the oracle the property tests check factors against.
func mul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a.At(i, k) * b.At(k, j)
			}
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases data")
	}
}

func TestFromRowsAndTranspose(t *testing.T) {
	m := fromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape %dx%d", mt.Rows, mt.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatal("transpose wrong")
			}
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := fromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(l.At(0, 0), 2, 1e-12) || !almostEq(l.At(1, 0), 1, 1e-12) ||
		!almostEq(l.At(1, 1), math.Sqrt2, 1e-12) || l.At(0, 1) != 0 {
		t.Fatalf("L = %+v", l)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Cholesky(NewMatrix(2, 3)); err == nil {
		t.Fatal("non-square accepted")
	}
}

func TestCholeskyReconstructionProperty(t *testing.T) {
	// Random SPD matrices A = B·Bᵀ + n·I must satisfy L·Lᵀ = A.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(12)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := mul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		rec := mul(l, l.T())
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(rec.At(i, j), a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					t.Fatalf("trial %d: reconstruction (%d,%d): %v vs %v",
						trial, i, j, rec.At(i, j), a.At(i, j))
				}
			}
		}
	}
}

func TestTriangularSolves(t *testing.T) {
	l := fromRows([][]float64{{2, 0}, {1, 3}})
	// L·x = b with b = (4, 11) ⇒ x = (2, 3).
	x := SolveLowerInto(nil, l, []float64{4, 11})
	if !almostEq(x[0], 2, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("SolveLowerInto = %v", x)
	}
	// Lᵀ·y = b with b = (7, 9) ⇒ y solves [[2,1],[0,3]]·y = (7,9) → y = (2, 3).
	y := SolveUpperInto(nil, l, []float64{7, 9})
	if !almostEq(y[0], 2, 1e-12) || !almostEq(y[1], 3, 1e-12) {
		t.Fatalf("SolveUpperInto = %v", y)
	}
}

func TestCholSolveRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		b := NewMatrix(n, n)
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		a := mul(b, b.T())
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := mul(a, &Matrix{Rows: n, Cols: 1, Data: want}).Data
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := CholSolve(l, rhs)
		for i := range want {
			if !almostEq(got[i], want[i], 1e-6*(1+math.Abs(want[i]))) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// Fit y = 3 + 2x through exact points.
	a := fromRows([][]float64{{1, 0}, {1, 1}, {1, 2}, {1, 3}})
	b := []float64{3, 5, 7, 9}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-6) || !almostEq(x[1], 2, 1e-6) {
		t.Fatalf("fit = %v", x)
	}
}

func TestLeastSquaresOverdeterminedNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 200
	a := NewMatrix(n, 2)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i) / 10
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 1.5 + 0.5*x + rng.NormFloat64()*0.01
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(coef[0], 1.5, 0.02) || !almostEq(coef[1], 0.5, 0.01) {
		t.Fatalf("fit = %v", coef)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("underdetermined accepted")
	}
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("rhs mismatch accepted")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}
