package linalg

import (
	"math/rand"
	"testing"
)

func spd(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// BenchmarkCholesky64 matches the Bayesian solver's GP training size cap.
func BenchmarkCholesky64(b *testing.B) {
	a := spd(64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholSolve64(b *testing.B) {
	a := spd(64, 2)
	l, err := Cholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 64)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CholSolve(l, rhs)
	}
}

// BenchmarkLeastSquaresGridFit matches the plate-grid fit shape (96 obs, 3
// coefficients).
func BenchmarkLeastSquaresGridFit(b *testing.B) {
	a := NewMatrix(96, 3)
	rhs := make([]float64, 96)
	for i := 0; i < 96; i++ {
		a.Set(i, 0, 1)
		a.Set(i, 1, float64(i%12))
		a.Set(i, 2, float64(i/12))
		rhs[i] = 150 + 31.5*float64(i%12) + 0.3*float64(i/12)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LeastSquares(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
