package baseline

import (
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

func TestRandomProposesValidRatios(t *testing.T) {
	r := NewRandom(sim.NewRNG(1), 4)
	props := r.Propose(50)
	for _, p := range props {
		if err := solver.ValidateRatios(p, 4); err != nil {
			t.Fatal(err)
		}
	}
	r.Observe(nil) // must not panic
	if r.Name() != "random" {
		t.Fatal("name")
	}
}

func TestGridSweepsAllPointsThenWraps(t *testing.T) {
	g := NewGrid(4, 3) // C(6,3) = 20 points
	first := g.Propose(20)
	again := g.Propose(1)
	same := true
	for i := range again[0] {
		if again[0][i] != first[0][i] {
			same = false
		}
	}
	if !same {
		t.Fatal("grid did not wrap to first point")
	}
	seen := map[[4]float64]bool{}
	for _, p := range first {
		var k [4]float64
		copy(k[:], p)
		seen[k] = true
	}
	if len(seen) != 20 {
		t.Fatalf("grid proposed %d distinct points, want 20", len(seen))
	}
}

func TestGridProposalsAreCopies(t *testing.T) {
	g := NewGrid(4, 3)
	a := g.Propose(1)
	a[0][0] = 999
	g.pos = 0
	b := g.Propose(1)
	if b[0][0] == 999 {
		t.Fatal("grid aliased internal point")
	}
}

func TestAnalyticOracleNearlySolvesTarget(t *testing.T) {
	model := mix.NewModel()
	target := color.RGB8{R: 120, G: 120, B: 120}
	a := NewAnalytic(model, target, color.MetricEuclideanRGB, sim.NewRNG(1))
	recipe := a.recipe
	if err := solver.ValidateRatios(recipe, 4); err != nil {
		t.Fatal(err)
	}
	c := mix.IdealSensor().Observe(model.MixFractions(recipe))
	if d := color.EuclideanRGB(c, target); d > 3 {
		t.Fatalf("oracle recipe %.3v scores %.2f against its own model", recipe, d)
	}
}

func TestAnalyticOracleOnChromaticTarget(t *testing.T) {
	model := mix.NewModel()
	// A muted teal-ish target reachable with CMYK dyes.
	target := color.RGB8{R: 60, G: 140, B: 150}
	a := NewAnalytic(model, target, color.MetricEuclideanRGB, sim.NewRNG(2))
	c := mix.IdealSensor().Observe(model.MixFractions(a.recipe))
	if d := color.EuclideanRGB(c, target); d > 12 {
		t.Fatalf("oracle off by %.1f for chromatic target (%+v vs %+v)", d, c, target)
	}
}

func TestAnalyticProposalsJitteredButClose(t *testing.T) {
	model := mix.NewModel()
	target := color.RGB8{R: 120, G: 120, B: 120}
	a := NewAnalytic(model, target, color.MetricEuclideanRGB, sim.NewRNG(3))
	props := a.Propose(8)
	if len(props) != 8 {
		t.Fatalf("proposals = %d", len(props))
	}
	base := props[0]
	distinct := false
	for _, p := range props[1:] {
		if err := solver.ValidateRatios(p, 4); err != nil {
			t.Fatal(err)
		}
		for i := range p {
			if p[i] != base[i] {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatal("batch proposals literally identical")
	}
}
