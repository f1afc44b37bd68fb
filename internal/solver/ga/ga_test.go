package ga

import (
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

// evaluate runs the noise-free physics for a proposal.
func evaluate(model *mix.Model, target color.RGB8, ratios []float64) solver.Sample {
	c := mix.IdealSensor().Observe(model.MixFractions(ratios))
	return solver.Sample{
		Ratios: ratios,
		Color:  c,
		Score:  color.EuclideanRGB(c, target),
	}
}

func runLoop(t *testing.T, s solver.Solver, batch, total int) float64 {
	t.Helper()
	model := mix.NewModel()
	target := color.RGB8{R: 120, G: 120, B: 120}
	best := 1e9
	for produced := 0; produced < total; produced += batch {
		props := s.Propose(batch)
		if len(props) != batch {
			t.Fatalf("Propose(%d) returned %d", batch, len(props))
		}
		var samples []solver.Sample
		for _, p := range props {
			if err := solver.ValidateRatios(p, 4); err != nil {
				t.Fatal(err)
			}
			smp := evaluate(model, target, p)
			samples = append(samples, smp)
			if smp.Score < best {
				best = smp.Score
			}
		}
		s.Observe(samples)
	}
	return best
}

func TestGAConvergesOnTargetGray(t *testing.T) {
	s := New(sim.NewRNG(1), Options{})
	best := runLoop(t, s, 8, 128)
	if best > 20 {
		t.Fatalf("GA best after 128 samples = %.1f, want < 20", best)
	}
}

func TestGABeatsNothingAtB1(t *testing.T) {
	s := New(sim.NewRNG(2), Options{RandomInit: true})
	best := runLoop(t, s, 1, 128)
	if best > 30 {
		t.Fatalf("GA B=1 best = %.1f, want < 30", best)
	}
}

func TestGAInitialPopulationFromGrid(t *testing.T) {
	s := New(sim.NewRNG(3), Options{GridDivisions: 4})
	props := s.Propose(10)
	grid := solver.GridSimplex(4, 4)
	for _, p := range props {
		found := false
		for _, g := range grid {
			same := true
			for i := range p {
				if p[i] != g[i] {
					same = false
					break
				}
			}
			if same {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("initial proposal %v not a grid point", p)
		}
	}
}

func TestGARandomInit(t *testing.T) {
	s := New(sim.NewRNG(4), Options{RandomInit: true})
	props := s.Propose(5)
	for _, p := range props {
		if err := solver.ValidateRatios(p, 4); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGAEliteSlotInLargeBatches(t *testing.T) {
	s := New(sim.NewRNG(5), Options{})
	props := s.Propose(8)
	samples := make([]solver.Sample, len(props))
	for i, p := range props {
		samples[i] = solver.Sample{Ratios: p, Score: float64(10 + i)}
	}
	samples[3].Score = 1 // make a known elite
	s.Observe(samples)
	next := s.Propose(8)
	eliteSeen := false
	for _, p := range next {
		same := true
		for i := range p {
			if p[i] != samples[3].Ratios[i] {
				same = false
				break
			}
		}
		if same {
			eliteSeen = true
		}
	}
	if !eliteSeen {
		t.Fatal("elite not propagated into batch of 8")
	}
	if s.elite == nil || s.elite.Score != 1 {
		t.Fatalf("elite = %+v", s.elite)
	}
}

func TestGANoEliteSlotAtB1(t *testing.T) {
	// At B=1 re-proposing the elite forever would stall the search.
	s := New(sim.NewRNG(6), Options{RandomInit: true})
	p := s.Propose(1)
	s.Observe([]solver.Sample{{Ratios: p[0], Score: 0.5}}) // superb elite
	for i := 0; i < 10; i++ {
		next := s.Propose(1)
		same := true
		for j := range next[0] {
			if next[0][j] != p[0][j] {
				same = false
				break
			}
		}
		if !same {
			return // produced something new: good
		}
		s.Observe([]solver.Sample{{Ratios: next[0], Score: 1}})
	}
	t.Fatal("B=1 GA re-proposed the elite 10 times")
}

func TestGAMemoryBounded(t *testing.T) {
	s := New(sim.NewRNG(7), Options{MemorySize: 10, RandomInit: true})
	for i := 0; i < 30; i++ {
		props := s.Propose(4)
		samples := make([]solver.Sample, len(props))
		for j, p := range props {
			samples[j] = solver.Sample{Ratios: p, Score: float64(100 - i)}
		}
		s.Observe(samples)
	}
	if len(s.population) > 11 { // memory + possibly re-appended elite
		t.Fatalf("population grew to %d", len(s.population))
	}
	if s.generation != 30 {
		t.Fatalf("generation = %d", s.generation)
	}
}

func TestGADeterministicForSeed(t *testing.T) {
	run := func() [][]float64 {
		s := New(sim.NewRNG(42), Options{})
		var all [][]float64
		for i := 0; i < 5; i++ {
			props := s.Propose(6)
			all = append(all, props...)
			samples := make([]solver.Sample, len(props))
			for j, p := range props {
				samples[j] = solver.Sample{Ratios: p, Score: float64(j)}
			}
			s.Observe(samples)
		}
		return all
	}
	a, b := run(), run()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("nondeterministic at proposal %d", i)
			}
		}
	}
}

func TestGAObserveDoesNotAliasCallerSlices(t *testing.T) {
	s := New(sim.NewRNG(8), Options{RandomInit: true})
	p := s.Propose(1)
	ratios := p[0]
	s.Observe([]solver.Sample{{Ratios: ratios, Score: 1}})
	ratios[0] = 999 // caller mutates
	if s.elite.Ratios[0] == 999 {
		t.Fatal("solver aliased caller slice")
	}
}
