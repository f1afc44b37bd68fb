package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"colormatch/internal/sim"
	"colormatch/internal/solver"
)

// TestTracingKeepsDigest runs the reference campaigns untraced and traced:
// the tracing wrappers and the capturing cell must not change a single
// sample, and both must match the digest recorded with the benchmark.
func TestTracingKeepsDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four campaigns")
	}
	ctx := context.Background()
	plain, _, err := runReference(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, frames, err := runReference(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain != traced {
		t.Fatalf("traced digest %s, untraced %s", traced, plain)
	}
	if plain != referenceDigest {
		t.Fatalf("digest %s, recorded %s", plain, referenceDigest)
	}
	if want := 2 * referenceSamples / 4; len(frames) != want {
		t.Fatalf("captured %d frames, want %d", len(frames), want)
	}
}

// TestSolverWrapperForwardsBatchProposer checks that the timing wrapper is a
// solver.BatchProposer exactly when the solver it wraps is one.
func TestSolverWrapperForwardsBatchProposer(t *testing.T) {
	tr := newTracer()
	for _, name := range []string{"genetic", "bayesian", "random", "grid"} {
		s, err := buildSolver(name, sim.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		_, inner := s.(solver.BatchProposer)
		w := tr.wrapSolver("c", name, s)
		if _, outer := w.(solver.BatchProposer); outer != inner {
			t.Errorf("%s: wrapper BatchProposer %v, solver %v", name, outer, inner)
		}
		if got := len(solver.ProposeN(w, 4)); got != 4 {
			t.Errorf("%s: ProposeN through the wrapper gave %d proposals", name, got)
		}
	}
	if len(tr.spansNamed("solver.propose.genetic")) == 0 {
		t.Error("no propose span recorded")
	}
}

// TestPercentileTenBeyond checks the reporting rule: a tail percentile needs
// ten samples beyond it, otherwise the highest quantile that has them is
// used (never below the median), and the sample count is reported.
func TestPercentileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		wantQ  float64
		wantV  float64
		beyond int
	}{
		{1000, 0.99, 0.99, 990, 10},
		{500, 0.99, 0.98, 490, 10},
		{200, 0.9, 0.9, 180, 20},
		{15, 0.99, 8.0 / 15, 8, 7},
		{15, 0.5, 0.5, 8, 7},
		{1, 0.5, 0.5, 1, 0},
	} {
		s := percentile(seq(c.n), c.q)
		if s.N != c.n || s.Q != c.wantQ || s.Value != c.wantV {
			t.Errorf("percentile(n=%d, q=%v) = %+v, want q=%v value=%v", c.n, c.q, s, c.wantQ, c.wantV)
		}
		if got := c.n - int(s.Value); got != c.beyond {
			t.Errorf("n=%d q=%v: %d samples beyond, want %d", c.n, c.q, got, c.beyond)
		}
	}
	if s := percentile(nil, 0.99); s != (stat{}) {
		t.Errorf("empty sample: %+v", s)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the metrics the command reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, command %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
