// Package baseline provides reference decision procedures the paper's
// solvers are compared against: pure random search, exhaustive grid search,
// and an analytic oracle. The paper notes "the color picking problem admits
// to an analytic solution, given accurate models of how colors combine and
// the properties of our color sensor" — the oracle is that solution, and
// bounds what any black-box solver can achieve.
package baseline

import (
	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

// Random proposes uniform simplex samples forever.
type Random struct {
	rng *sim.RNG
	dim int
}

// NewRandom returns a random-search solver.
func NewRandom(rng *sim.RNG, dim int) *Random {
	if dim == 0 {
		dim = 4
	}
	return &Random{rng: rng, dim: dim}
}

// Name implements solver.Solver.
func (r *Random) Name() string { return "random" }

// Propose implements solver.Solver.
func (r *Random) Propose(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = solver.RandomSimplex(r.rng, r.dim)
	}
	return out
}

// Observe implements solver.Solver (random search ignores feedback).
func (r *Random) Observe([]solver.Sample) {}

// Grid sweeps a uniform simplex grid in order, wrapping around when
// exhausted.
type Grid struct {
	points [][]float64
	pos    int
}

// NewGrid returns a grid-search solver with the given divisions per axis.
func NewGrid(dim, divisions int) *Grid {
	if dim == 0 {
		dim = 4
	}
	if divisions == 0 {
		divisions = 6
	}
	return &Grid{points: solver.GridSimplex(dim, divisions)}
}

// Name implements solver.Solver.
func (g *Grid) Name() string { return "grid" }

// Propose implements solver.Solver.
func (g *Grid) Propose(n int) [][]float64 {
	out := make([][]float64, 0, n)
	for len(out) < n {
		if g.pos >= len(g.points) {
			g.pos = 0
		}
		p := make([]float64, len(g.points[g.pos]))
		copy(p, g.points[g.pos])
		out = append(out, p)
		g.pos++
	}
	return out
}

// Observe implements solver.Solver (grid search ignores feedback).
func (g *Grid) Observe([]solver.Sample) {}

// Analytic is the white-box oracle: it owns the forward mixing model and
// inverts it for the target color by dense sampling plus local refinement.
// It proposes (nearly) the same optimal recipe every time; its score floor
// is the sensor/vision noise.
type Analytic struct {
	model  *mix.Model
	sensor *mix.Sensor
	target color.RGB8
	metric color.Metric
	rng    *sim.RNG
	recipe []float64
}

// NewAnalytic returns the oracle for the given physics and target.
func NewAnalytic(model *mix.Model, target color.RGB8, metric color.Metric, rng *sim.RNG) *Analytic {
	a := &Analytic{model: model, sensor: mix.IdealSensor(), target: target, metric: metric, rng: rng}
	a.recipe = a.solve()
	return a
}

// Name implements solver.Solver.
func (a *Analytic) Name() string { return "analytic" }

// Propose implements solver.Solver. Repeats are jittered microscopically so
// a batch is not literally identical wells.
func (a *Analytic) Propose(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(a.recipe))
		copy(p, a.recipe)
		if i > 0 && a.rng != nil {
			for j := range p {
				p[j] += a.rng.Normal(0, 0.002)
			}
			p = solver.Normalize(p)
		}
		out[i] = p
	}
	return out
}

// Observe implements solver.Solver (the oracle needs no feedback).
func (a *Analytic) Observe([]solver.Sample) {}

// score evaluates a composition through the noise-free forward model.
func (a *Analytic) score(f []float64) float64 {
	return a.metric.Distance(a.sensor.Observe(a.model.MixFractions(f)), a.target)
}

// solve inverts the model: dense random sampling then shrinking-step
// coordinate refinement on the simplex.
func (a *Analytic) solve() []float64 {
	dim := a.model.NumDyes()
	rng := a.rng
	if rng == nil {
		rng = sim.NewRNG(1)
	}
	best := solver.RandomSimplex(rng, dim)
	bestScore := a.score(best)
	for i := 0; i < 4096; i++ {
		c := solver.RandomSimplex(rng, dim)
		if s := a.score(c); s < bestScore {
			best, bestScore = c, s
		}
	}
	step := 0.05
	for step > 1e-4 {
		improved := false
		for i := 0; i < dim; i++ {
			for _, dir := range [2]float64{1, -1} {
				c := make([]float64, dim)
				copy(c, best)
				c[i] += dir * step
				c = solver.Normalize(c)
				if s := a.score(c); s < bestScore {
					best, bestScore = c, s
					improved = true
				}
			}
		}
		if !improved {
			step /= 2
		}
	}
	return best
}

// ProposeBatch implements solver.BatchProposer.
func (r *Random) ProposeBatch(n int) [][]float64 { return r.Propose(n) }

// ProposeBatch implements solver.BatchProposer: one call walks the grid
// enumeration n steps.
func (g *Grid) ProposeBatch(n int) [][]float64 { return g.Propose(n) }

// ProposeBatch implements solver.BatchProposer: repeats within one batch are
// jittered so the wells are not literally identical.
func (a *Analytic) ProposeBatch(n int) [][]float64 { return a.Propose(n) }
