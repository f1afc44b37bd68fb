// Package ga implements the paper's "simple evolutionary solver": a genetic
// algorithm over dye-ratio compositions.
//
// Faithful to §2.5: the initial population is sampled from a uniform grid;
// each generation grades individuals by distance to the target; the most
// accurate element of the previous population is propagated into the new
// generation; one third of the new population averages two random elements
// of the previous population; one third randomly shifts the ratios of a
// random element; and the final third is freshly random. "The evolutionary
// algorithm used has random elements, which means that improvement between
// iterations is not guaranteed" — the long flat stretches in Figure 4 come
// from exactly this structure.
package ga

import (
	"sort"

	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

// Options configure the solver.
type Options struct {
	// Dim is the number of dyes (default 4).
	Dim int
	// GridDivisions controls the uniform initialization grid (default 6).
	GridDivisions int
	// RandomInit, when true, draws initial proposals uniformly at random
	// instead of from the grid — the Figure 4 experiments note "the first
	// sample(s) are chosen at random".
	RandomInit bool
	// MutationScale is the relative size of a ratio shift (default 0.35).
	MutationScale float64
	// MemorySize bounds the surviving population: after each generation the
	// fittest MemorySize individuals are kept (default 12). Small batches
	// still get meaningful crossover partners this way.
	MemorySize int
}

func (o *Options) defaults() {
	if o.Dim == 0 {
		o.Dim = 4
	}
	if o.GridDivisions == 0 {
		o.GridDivisions = 6
	}
	if o.MutationScale == 0 {
		o.MutationScale = 0.35
	}
	if o.MemorySize == 0 {
		o.MemorySize = 12
	}
}

// Solver is the genetic-algorithm decision procedure.
type Solver struct {
	opts Options
	rng  *sim.RNG

	grid    [][]float64 // shuffled initialization grid, consumed from front
	gridPos int

	population []solver.Sample // recent samples (sliding window)
	elite      *solver.Sample  // best individual seen so far
	generation int
}

// New returns a GA solver with the given options, seeded by rng.
func New(rng *sim.RNG, opts Options) *Solver {
	opts.defaults()
	s := &Solver{opts: opts, rng: rng}
	if !opts.RandomInit {
		s.grid = solver.GridSimplex(opts.Dim, opts.GridDivisions)
		rng.Shuffle(len(s.grid), func(i, j int) { s.grid[i], s.grid[j] = s.grid[j], s.grid[i] })
	}
	return s
}

// Name implements solver.Solver.
func (s *Solver) Name() string { return "genetic" }

// Propose implements solver.Solver.
func (s *Solver) Propose(n int) [][]float64 {
	out := make([][]float64, 0, n)
	if len(s.population) == 0 {
		// Initial population: uniform grid (shuffled) or uniform random.
		for len(out) < n {
			out = append(out, s.initial())
		}
		return out
	}
	// Elite re-synthesis slot: only when the batch is large enough that the
	// variation thirds still get room ("the most accurate element of the
	// previous population is propagated into the new generation").
	if n >= 4 && s.elite != nil {
		out = append(out, clone(s.elite.Ratios))
	}
	for len(out) < n {
		// One third crossover, one third mutation, one third fresh random.
		// The operator is drawn per slot rather than assigned positionally
		// so that B=1 runs still cycle through all three over generations.
		switch s.rng.Intn(3) {
		case 0:
			out = append(out, s.crossover())
		case 1:
			out = append(out, s.mutate())
		default:
			out = append(out, solver.RandomSimplex(s.rng, s.opts.Dim))
		}
	}
	return out
}

// Observe implements solver.Solver. Survival is elitist truncation: the new
// samples join the population and only the fittest MemorySize individuals
// survive ("The fittest individuals are selected, and the remainder of the
// population is augmented").
func (s *Solver) Observe(samples []solver.Sample) {
	for _, smp := range samples {
		cp := smp
		cp.Ratios = clone(smp.Ratios)
		s.population = append(s.population, cp)
		if s.elite == nil || cp.Score < s.elite.Score {
			e := cp
			s.elite = &e
		}
	}
	sort.SliceStable(s.population, func(i, j int) bool {
		return s.population[i].Score < s.population[j].Score
	})
	if len(s.population) > s.opts.MemorySize {
		s.population = s.population[:s.opts.MemorySize]
	}
	s.generation++
}

func (s *Solver) initial() []float64 {
	if s.opts.RandomInit || s.grid == nil {
		return solver.RandomSimplex(s.rng, s.opts.Dim)
	}
	if s.gridPos >= len(s.grid) {
		s.gridPos = 0
	}
	p := clone(s.grid[s.gridPos])
	s.gridPos++
	return p
}

// pick selects a parent uniformly at random from the surviving population,
// as the paper describes ("randomly selecting two elements of the previous
// population"). Selection pressure comes from truncation survival in
// Observe, not from the draw.
func (s *Solver) pick() solver.Sample {
	return s.population[s.rng.Intn(len(s.population))]
}

// crossover averages two selected elements of the previous population.
func (s *Solver) crossover() []float64 {
	a, b := s.pick(), s.pick()
	out := make([]float64, s.opts.Dim)
	for i := range out {
		out[i] = (a.Ratios[i] + b.Ratios[i]) / 2
	}
	return solver.NormalizeInPlace(out)
}

// mutate randomly shifts the ratios of a selected element.
func (s *Solver) mutate() []float64 {
	p := s.pick()
	out := make([]float64, s.opts.Dim)
	m := s.opts.MutationScale
	for i := range out {
		out[i] = p.Ratios[i] * (1 + s.rng.Uniform(-m, m))
		// Occasionally shift mass absolutely too, so zero entries can revive.
		if s.rng.Bool(0.25) {
			out[i] += s.rng.Uniform(0, m/4)
		}
	}
	return solver.NormalizeInPlace(out)
}

func clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// ProposeBatch implements solver.BatchProposer: a GA generation is
// inherently batch-aware — crossover and mutation spread the n children
// across the current population rather than drawing them independently.
func (s *Solver) ProposeBatch(n int) [][]float64 { return s.Propose(n) }
