// Package solver defines the decision-procedure interface of the
// color-picker application and shared helpers for working in ratio space.
//
// The paper: "our optimization algorithm leverages its (initially empty) set
// of data obtained to date to propose a set of experiments to perform,
// expressed as a set of volumes for each liquid." Solvers see only proposed
// ratios and the graded outcomes (the black-box view); they never touch the
// mixing physics.
package solver

import (
	"fmt"
	"math"

	"colormatch/internal/color"
	"colormatch/internal/sim"
)

// Sample is one completed experiment: the proposed dye ratios, the color the
// camera observed, and its grade (distance to target; lower is better).
type Sample struct {
	Ratios []float64
	Color  color.RGB8
	Score  float64
}

// Solver proposes experiment batches and learns from observed samples.
// Implementations must be deterministic given their seed.
type Solver interface {
	// Name identifies the decision procedure (e.g. "genetic").
	Name() string
	// Propose returns n ratio vectors (each non-negative, summing to 1)
	// for the next batch of wells.
	Propose(n int) [][]float64
	// Observe feeds back the graded samples of the last batch.
	Observe(samples []Sample)
}

// BatchProposer is an optional extension of Solver for decision procedures
// whose proposals are batch-aware: one call for n wells yields a jointly
// chosen, deliberately diverse set (a GA generation, a multi-point
// acquisition) rather than n independent draws. ProposeN prefers this
// interface when a solver implements it.
type BatchProposer interface {
	Solver
	// ProposeBatch returns n ratio vectors chosen jointly.
	ProposeBatch(n int) [][]float64
}

// ProposeN asks s for n proposals. Solvers implementing BatchProposer
// receive a single ProposeBatch call; any other Solver gets one Propose(n)
// call, exactly as before this seam existed. Either way an under-delivered
// batch — a one-at-a-time decision procedure, or a batch proposer that
// dedups candidates — is topped up with sequential single-proposal calls
// rather than failing the campaign loop, and an over-delivered one is
// trimmed to n.
func ProposeN(s Solver, n int) [][]float64 {
	if n <= 0 {
		return nil
	}
	var out [][]float64
	if bp, ok := s.(BatchProposer); ok {
		out = bp.ProposeBatch(n)
	} else {
		out = s.Propose(n)
	}
	for len(out) > 0 && len(out) < n {
		more := s.Propose(1)
		if len(more) == 0 {
			break
		}
		out = append(out, more...)
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Best returns the sample with the lowest score, ok=false when empty.
func Best(samples []Sample) (Sample, bool) {
	if len(samples) == 0 {
		return Sample{}, false
	}
	best := samples[0]
	for _, s := range samples[1:] {
		if s.Score < best.Score {
			best = s
		}
	}
	return best, true
}

// Normalize clamps negatives to zero and scales the vector to sum to one;
// an all-zero vector becomes uniform. Every solver funnels proposals through
// this so the OT-2 always receives a mixable recipe. The input is left
// unchanged; use NormalizeInPlace when the caller owns the slice.
func Normalize(ratios []float64) []float64 {
	out := make([]float64, len(ratios))
	copy(out, ratios)
	return NormalizeInPlace(out)
}

// NormalizeInPlace is Normalize operating directly on ratios, for hot paths
// that build a fresh vector and would otherwise pay a second allocation for
// the normalized copy. It returns ratios for call-chaining.
func NormalizeInPlace(ratios []float64) []float64 {
	total := 0.0
	for i, r := range ratios {
		if r > 0 {
			total += r
		} else {
			ratios[i] = 0
		}
	}
	if total == 0 {
		for i := range ratios {
			ratios[i] = 1 / float64(len(ratios))
		}
		return ratios
	}
	for i := range ratios {
		ratios[i] /= total
	}
	return ratios
}

// RandomSimplex draws a uniform point on the probability simplex of the
// given dimension (Dirichlet(1,...,1) via normalized exponentials).
func RandomSimplex(rng *sim.RNG, dim int) []float64 {
	out := make([]float64, dim)
	total := 0.0
	for i := range out {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		out[i] = -math.Log(u)
		total += out[i]
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// GridSimplex enumerates the points of a uniform grid on the simplex with
// the given number of divisions per axis ("points are sampled from a uniform
// grid of proper dimensions"). For dim=4 and divisions=6 this yields the
// compositions (i,j,k,l)/6 with i+j+k+l=6.
func GridSimplex(dim, divisions int) [][]float64 {
	if dim < 1 || divisions < 1 {
		return nil
	}
	var out [][]float64
	comp := make([]int, dim)
	var rec func(idx, remaining int)
	rec = func(idx, remaining int) {
		if idx == dim-1 {
			comp[idx] = remaining
			point := make([]float64, dim)
			for i, c := range comp {
				point[i] = float64(c) / float64(divisions)
			}
			out = append(out, point)
			return
		}
		for c := 0; c <= remaining; c++ {
			comp[idx] = c
			rec(idx+1, remaining-c)
		}
	}
	rec(0, divisions)
	return out
}

// ValidateRatios checks a proposal is a usable composition.
//
//lint:ignore testonly test oracle: the shared composition check the solver, baseline, bayes and ga tests hold every proposal to
func ValidateRatios(r []float64, dim int) error {
	if len(r) != dim {
		return fmt.Errorf("solver: ratio vector has %d entries, want %d", len(r), dim)
	}
	sum := 0.0
	for i, v := range r {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("solver: ratio[%d] = %v invalid", i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("solver: ratios sum to %v, want 1", sum)
	}
	return nil
}
