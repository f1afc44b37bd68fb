package core

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/ga"
	"colormatch/internal/wei"
)

// newTestApp wires a full in-process experiment.
func newTestApp(t *testing.T, cfg Config, seed int64) (*App, *SimWorkcell, *portal.Store) {
	t.Helper()
	wc := NewSimWorkcell(WorkcellOptions{Seed: seed})
	log := wei.NewEventLog(wc.Clock)
	engine := wei.NewEngine(wc.Registry, wc.Clock, log)
	sol := ga.New(sim.NewRNG(seed).Derive("solver"), ga.Options{RandomInit: true})
	app, err := NewApp(cfg, engine, sol)
	if err != nil {
		t.Fatal(err)
	}
	store := portal.NewStore()
	app.Dest = store
	return app, wc, store
}

func TestAppRunsSmallExperiment(t *testing.T) {
	app, wc, store := newTestApp(t, Config{
		Experiment:   "smoke",
		BatchSize:    8,
		TotalSamples: 24,
	}, 1)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 24 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if len(res.Trace) != 24 {
		t.Fatalf("trace = %d", len(res.Trace))
	}
	if res.Plates != 1 {
		t.Fatalf("plates = %d", res.Plates)
	}
	// 3 iterations published.
	if len(res.RecordIDs) != 3 {
		t.Fatalf("published = %d", len(res.RecordIDs))
	}
	if store.Len() != 3 {
		t.Fatalf("portal records = %d", store.Len())
	}
	// Trace monotonicity: Best never increases; Elapsed never decreases.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].Best > res.Trace[i-1].Best {
			t.Fatalf("best increased at %d", i)
		}
		if res.Trace[i].Elapsed < res.Trace[i-1].Elapsed {
			t.Fatalf("elapsed decreased at %d", i)
		}
	}
	// Virtual time must have advanced substantially (3 iterations of ~8
	// wells: transfers + protocols), but wall time stayed tiny.
	if res.Elapsed() < 30*time.Minute {
		t.Fatalf("virtual elapsed = %v", res.Elapsed())
	}
	// The plate was disposed at the end.
	if got := len(wc.World.TrashedPlates()); got != 1 {
		t.Fatalf("trashed plates = %d", got)
	}
	if res.Best.Score > 120 {
		t.Fatalf("best score %v implausible", res.Best.Score)
	}
}

func TestAppSpansMultiplePlates(t *testing.T) {
	app, wc, _ := newTestApp(t, Config{
		Experiment:   "twoplates",
		BatchSize:    16,
		TotalSamples: 128, // 96 + 32 ⇒ two plates
	}, 2)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plates != 2 {
		t.Fatalf("plates = %d", res.Plates)
	}
	if got := len(wc.World.TrashedPlates()); got != 2 {
		t.Fatalf("trashed = %d", got)
	}
	if len(res.Samples) != 128 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	// All wells of plate 1 used exactly.
	p1 := wc.World.TrashedPlates()[0]
	if p1.Used() != 96 {
		t.Fatalf("plate 1 used %d wells", p1.Used())
	}
	p2 := wc.World.TrashedPlates()[1]
	if p2.Used() != 32 {
		t.Fatalf("plate 2 used %d wells", p2.Used())
	}
}

func TestAppStopScoreTerminatesEarly(t *testing.T) {
	app, _, _ := newTestApp(t, Config{
		Experiment:   "early",
		BatchSize:    8,
		TotalSamples: 96,
		StopScore:    200, // any sample satisfies this
	}, 3)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 8 {
		t.Fatalf("early stop produced %d samples", len(res.Samples))
	}
}

func TestAppMetricsPlausibleForB1(t *testing.T) {
	// A short B=1 run: per-iteration wall time should match the paper's
	// ~231s/iteration calibration.
	app, _, _ := newTestApp(t, Config{
		Experiment:   "b1",
		BatchSize:    1,
		TotalSamples: 8,
	}, 4)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perColor := res.Metrics.TimePerColor
	if perColor < 3*time.Minute || perColor > 6*time.Minute {
		t.Fatalf("time per color = %v, want ~4min", perColor)
	}
	if res.Metrics.SynthesisTime <= res.Metrics.TransferTime {
		t.Fatalf("synthesis %v not > transfer %v",
			res.Metrics.SynthesisTime, res.Metrics.TransferTime)
	}
	if res.Metrics.CCWH == 0 || res.Metrics.Uploads != 8 {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
}

func TestAppDeterministicForSeed(t *testing.T) {
	run := func() *Result {
		app, _, _ := newTestApp(t, Config{
			Experiment:   "det",
			BatchSize:    4,
			TotalSamples: 12,
		}, 42)
		res, err := app.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Samples {
		if a.Samples[i].Color != b.Samples[i].Color || a.Samples[i].Score != b.Samples[i].Score {
			t.Fatalf("sample %d differs: %+v vs %+v", i, a.Samples[i], b.Samples[i])
		}
	}
	if a.Elapsed() != b.Elapsed() {
		t.Fatalf("elapsed differs: %v vs %v", a.Elapsed(), b.Elapsed())
	}
}

func TestAppReplenishTriggersOnHeavySingleDyeUse(t *testing.T) {
	// A solver that always demands pure black drains that reservoir:
	// 96 wells × 275µL = 26400µL > 25000µL capacity, so cp_wf_replenish
	// must fire at least once within one plate.
	wc := NewSimWorkcell(WorkcellOptions{Seed: 5})
	log := wei.NewEventLog(wc.Clock)
	engine := wei.NewEngine(wc.Registry, wc.Clock, log)
	app, err := NewApp(Config{
		Experiment:   "drain",
		BatchSize:    16,
		TotalSamples: 96,
	}, engine, blackSolver{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	replenished := false
	for _, e := range res.Events {
		if e.Kind == wei.EvWorkflowStart && e.Workflow == "cp_wf_replenish" {
			replenished = true
		}
	}
	if !replenished {
		t.Fatal("replenish workflow never ran despite single-dye drain")
	}
	if len(res.Samples) != 96 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
}

func TestAppStopsGracefullyWhenPlateStockExhausted(t *testing.T) {
	// One plate in the towers but a 128-sample budget: the run must end
	// after 96 samples with a note, not an error ("resources exhausted" is
	// a termination criterion).
	wc := NewSimWorkcell(WorkcellOptions{Seed: 6, PlateStock: 1})
	log := wei.NewEventLog(wc.Clock)
	engine := wei.NewEngine(wc.Registry, wc.Clock, log)
	sol := ga.New(sim.NewRNG(6).Derive("solver"), ga.Options{RandomInit: true})
	app, err := NewApp(Config{
		Experiment:   "exhaust",
		BatchSize:    32,
		TotalSamples: 128,
	}, engine, sol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatalf("stock exhaustion surfaced as error: %v", err)
	}
	if len(res.Samples) != 96 {
		t.Fatalf("samples = %d, want 96 (one plate)", len(res.Samples))
	}
	noted := false
	for _, e := range res.Events {
		if e.Kind == wei.EvNote && strings.Contains(e.Note, "stock exhausted") {
			noted = true
		}
	}
	if !noted {
		t.Fatal("no stock-exhausted note in event log")
	}
}

// blackSolver always proposes pure black.
type blackSolver struct{}

func (blackSolver) Name() string { return "black" }
func (blackSolver) Propose(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{0, 0, 0, 1}
	}
	return out
}
func (blackSolver) Observe([]solver.Sample) {}

// TestAppPublishRetryAfterLostResponseIngestsOnce: an App publishing
// straight to a remote portal, whose first write is committed but loses its
// response on the wire. Delivery's retry resends the run's batch under the
// key its first attempt carried, so the portal ends with exactly one record
// per published iteration.
func TestAppPublishRetryAfterLostResponseIngestsOnce(t *testing.T) {
	app, _, _ := newTestApp(t, Config{Experiment: "lossy", BatchSize: 4, TotalSamples: 8}, 3)
	store := portal.NewStore()
	h := portal.Serve(store)
	var lost atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/ingest/batch" && lost.CompareAndSwap(false, true) {
			h.ServeHTTP(httptest.NewRecorder(), req)
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, req)
	}))
	defer srv.Close()
	app.Dest = portal.NewClient(srv.URL)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !lost.Load() {
		t.Fatal("no write lost its response")
	}
	if res.PublishErr != nil {
		t.Fatalf("publish error after a retried lost response: %v", res.PublishErr)
	}
	if len(res.RecordIDs) != 2 {
		t.Fatalf("published = %d, want 2", len(res.RecordIDs))
	}
	if store.Len() != len(res.RecordIDs) {
		t.Fatalf("portal records = %d for %d published iterations", store.Len(), len(res.RecordIDs))
	}
}

// quittingSolver proposes pure black for `left` batches, then proposes
// nothing, which fails the run at its next iteration.
type quittingSolver struct {
	blackSolver
	left int
}

func (s *quittingSolver) Propose(n int) [][]float64 {
	if s.left == 0 {
		return nil
	}
	s.left--
	return s.blackSolver.Propose(n)
}

// TestFailedRunDeliversItsRecords: a run that fails partway still delivers
// every record it published before the failure, and the delivery is over by
// the time RunCampaign returns — no publisher is left writing behind it.
func TestFailedRunDeliversItsRecords(t *testing.T) {
	wc := NewSimWorkcell(WorkcellOptions{Seed: 5})
	engine := wei.NewEngine(wc.Registry, wc.Clock, wei.NewEventLog(wc.Clock))
	store := portal.NewStore()
	cfg := Config{Experiment: "partial", BatchSize: 4, TotalSamples: 16}
	res, err := RunCampaign(context.Background(), cfg, engine, &quittingSolver{left: 2}, nil, store)
	if err == nil || !strings.Contains(err.Error(), "solver proposed 0 of 4") {
		t.Fatalf("err = %v, want the solver failure", err)
	}
	if len(res.Samples) != 8 {
		t.Fatalf("samples = %d, want 8 from two iterations", len(res.Samples))
	}
	if res.PublishErr != nil {
		t.Fatalf("publish error: %v", res.PublishErr)
	}
	if got := store.Len(); got != 2 || len(res.RecordIDs) != 2 {
		t.Fatalf("store=%d ids=%d, want 2 each", got, len(res.RecordIDs))
	}
	for i, id := range res.RecordIDs {
		if rec, err := store.Get(id); err != nil || rec.Run != i+1 {
			t.Fatalf("record %d = %s -> %+v, %v; want run %d", i, id, rec, err, i+1)
		}
	}
}

// TestAppRejectedRecordIsSentOnce: a portal that rejects the run's batch as
// invalid (HTTP 400) sees it exactly once — resending a rejected submission
// cannot succeed — and the rejection surfaces as Result.PublishErr without
// failing the run.
func TestAppRejectedRecordIsSentOnce(t *testing.T) {
	app, _, _ := newTestApp(t, Config{Experiment: "rejected", BatchSize: 4, TotalSamples: 4}, 4)
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method == http.MethodPost && req.URL.Path == "/ingest/batch" {
			posts.Add(1)
		}
		http.Error(w, "record rejected", http.StatusBadRequest)
	}))
	defer srv.Close()
	app.Dest = portal.NewClient(srv.URL)
	res, err := app.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := posts.Load(); n != 1 {
		t.Fatalf("POST /ingest/batch arrived %d times, want 1", n)
	}
	if !errors.Is(res.PublishErr, portal.ErrInvalid) {
		t.Fatalf("PublishErr = %v, want portal.ErrInvalid", res.PublishErr)
	}
	if res.RecordIDs != nil {
		t.Fatalf("ids=%v after a rejected delivery", res.RecordIDs)
	}
}
