package colormatch

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunFacadeEndToEnd(t *testing.T) {
	res, store, err := Run(Config{
		Experiment:   "facade",
		BatchSize:    8,
		TotalSamples: 16,
	}, RunOptions{Seed: 5, Publish: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 16 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if store == nil || store.Len() != 2 {
		t.Fatalf("portal records = %v", store)
	}
	if res.Best.Score <= 0 && res.Best.Color == (RGB{}) {
		t.Fatalf("best = %+v", res.Best)
	}
	if res.Metrics.TimePerColor <= 0 {
		t.Fatal("metrics not computed")
	}
}

func TestRunWithoutPublishReturnsNilStore(t *testing.T) {
	res, store, err := Run(Config{
		Experiment:   "nopub",
		BatchSize:    8,
		TotalSamples: 8,
	}, RunOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		t.Fatal("store should be nil when publishing disabled")
	}
	if len(res.RecordIDs) != 0 {
		t.Fatalf("published = %d", len(res.RecordIDs))
	}
}

func TestNewSolverNames(t *testing.T) {
	for _, name := range []string{"genetic", "genetic-grid", "bayesian", "random", "grid", "analytic"} {
		s, err := NewSolver(name, 1, DefaultTarget)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		props := s.Propose(3)
		if len(props) != 3 {
			t.Fatalf("%s proposed %d", name, len(props))
		}
	}
	if _, err := NewSolver("nope", 1, DefaultTarget); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestAdvancedAPIDistributedLoop(t *testing.T) {
	// The advanced API must be able to rebuild what Run does.
	wc := NewWorkcell(WorkcellOptions{Seed: 9})
	engine, log := NewEngine(wc.Registry, wc)
	sol, err := NewSolver("genetic", 9, DefaultTarget)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NewApp(Config{
		Experiment:   "advanced",
		BatchSize:    4,
		TotalSamples: 8,
	}, engine, sol)
	if err != nil {
		t.Fatal(err)
	}
	store := NewPortalStore()
	app.Dest = store
	res, err := app.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed() < 10*time.Minute {
		t.Fatalf("virtual time %v", res.Elapsed())
	}
	if log.Len() == 0 {
		t.Fatal("no events logged")
	}
	if store.Len() != 2 {
		t.Fatalf("records = %d", store.Len())
	}
}

func TestInjectFaultsOnEngine(t *testing.T) {
	wc := NewWorkcell(WorkcellOptions{Seed: 10})
	engine, _ := NewEngine(wc.Registry, wc)
	InjectFaults(engine, FaultPlan{PReceive: 0.3}, 10)
	sol, _ := NewSolver("random", 10, DefaultTarget)
	app, err := NewApp(Config{
		Experiment:   "faulty",
		BatchSize:    4,
		TotalSamples: 8,
	}, engine, sol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run(nil)
	// With 30% receive faults and 3 attempts the run usually survives; if
	// it failed, the partial result must still be coherent.
	if err == nil && len(res.Samples) != 8 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if res.Metrics.FailedCommands == 0 {
		t.Fatal("no failed commands at 30% fault rate")
	}
}

func TestFigure3WritesViews(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	store, err := Figure3(77, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 12 {
		t.Fatalf("records = %d", store.Len())
	}
	out := buf.String()
	for _, want := range []string{"summary view", "Runs:     12", "Samples:  180", "run #12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure 3 output missing %q:\n%s", want, out)
		}
	}
}

func TestVersionIsSet(t *testing.T) {
	if Version == "" {
		t.Fatal("empty version")
	}
}
