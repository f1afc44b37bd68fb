package ga

import (
	"testing"
	"testing/quick"

	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

// TestGAProposalsAlwaysValidProperty: whatever (possibly adversarial)
// scores the GA observes, every proposal remains a valid composition the
// OT-2 can mix.
func TestGAProposalsAlwaysValidProperty(t *testing.T) {
	f := func(seed int64, scores []float64, batchRaw uint8) bool {
		batch := 1 + int(batchRaw)%16
		s := New(sim.NewRNG(seed), Options{RandomInit: true})
		for round := 0; round < 4; round++ {
			props := s.Propose(batch)
			if len(props) != batch {
				return false
			}
			samples := make([]solver.Sample, len(props))
			for i, p := range props {
				if err := solver.ValidateRatios(p, 4); err != nil {
					return false
				}
				score := 50.0
				if len(scores) > 0 {
					score = scores[(round*batch+i)%len(scores)]
					if score < 0 {
						score = -score
					}
				}
				samples[i] = solver.Sample{Ratios: p, Score: score}
			}
			s.Observe(samples)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestGAEliteNeverWorsensProperty: the elite's score is non-increasing over
// observations.
func TestGAEliteNeverWorsensProperty(t *testing.T) {
	f := func(seed int64, scores []uint16) bool {
		s := New(sim.NewRNG(seed), Options{RandomInit: true})
		prev := -1.0
		for i, sc := range scores {
			p := s.Propose(1)
			s.Observe([]solver.Sample{{Ratios: p[0], Score: float64(sc)}})
			elite := s.elite
			if elite == nil {
				return false
			}
			if prev >= 0 && elite.Score > prev {
				return false
			}
			prev = elite.Score
			if i > 24 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
