package fleet

import (
	"context"
	"errors"
	"testing"

	"colormatch/internal/core"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/baseline"
)

// quickCampaigns builds n small campaigns using the cheap random solver.
func quickCampaigns(n, samples int) []Campaign {
	campaigns := make([]Campaign, n)
	for i := range campaigns {
		campaigns[i] = Campaign{
			Solver: "random",
			Config: core.Config{TotalSamples: samples, BatchSize: 4},
		}
	}
	return campaigns
}

func TestRunZeroWorkcells(t *testing.T) {
	_, err := Run(context.Background(), quickCampaigns(2, 8), Options{Workcells: 0})
	if err == nil {
		t.Fatal("expected error for zero workcells")
	}
}

func TestRunEmptyCampaigns(t *testing.T) {
	res, err := Run(context.Background(), nil, Options{Workcells: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Campaigns) != 0 || res.Completed != 0 || res.Makespan != 0 {
		t.Fatalf("empty fleet result = %+v", res)
	}
}

func TestRunCompletesAllCampaigns(t *testing.T) {
	campaigns := quickCampaigns(4, 8)
	res, err := Run(context.Background(), campaigns, Options{Workcells: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 || res.Failed != 0 || res.Canceled != 0 {
		t.Fatalf("completed=%d failed=%d canceled=%d", res.Completed, res.Failed, res.Canceled)
	}
	if res.Samples != 32 {
		t.Fatalf("samples = %d, want 32", res.Samples)
	}
	for i, cr := range res.Campaigns {
		if cr.Status != StatusCompleted {
			t.Errorf("campaign %d status = %s (%v)", i, cr.Status, cr.Err)
		}
		if cr.Campaign.ID != i+1 || cr.Campaign.Name == "" {
			t.Errorf("campaign %d identity not normalized: %+v", i, cr.Campaign)
		}
		if cr.Wall <= 0 {
			t.Errorf("campaign %d wall = %v", i, cr.Wall)
		}
	}
	if res.Makespan <= 0 || res.SequentialWall < res.Makespan {
		t.Fatalf("makespan=%v sequential=%v", res.Makespan, res.SequentialWall)
	}
	if res.Metrics.TotalColors != 32 {
		t.Fatalf("aggregate colors = %d", res.Metrics.TotalColors)
	}
	busiest := res.Workcells[0].Busy
	for _, wc := range res.Workcells[1:] {
		if wc.Busy > busiest {
			busiest = wc.Busy
		}
	}
	if busiest != res.Makespan {
		t.Fatalf("makespan %v != busiest workcell %v", res.Makespan, busiest)
	}
}

// TestRunSpeedup is the acceptance workload: 8 campaigns on 4 workcells must
// finish in well under the single-workcell virtual wall clock.
func TestRunSpeedup(t *testing.T) {
	campaigns := quickCampaigns(8, 8)
	seq, err := Run(context.Background(), campaigns, Options{Workcells: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), quickCampaigns(8, 8), Options{Workcells: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completed != 8 || par.Completed != 8 {
		t.Fatalf("completed: seq=%d par=%d", seq.Completed, par.Completed)
	}
	if seq.Speedup != 1.0 {
		t.Fatalf("single-workcell speedup = %v, want 1.0", seq.Speedup)
	}
	ratio := float64(seq.Makespan) / float64(par.Makespan)
	if ratio < 1.5 {
		t.Fatalf("4-workcell makespan speedup = %.2f, want > 1.5 (seq=%v par=%v)",
			ratio, seq.Makespan, par.Makespan)
	}
	if par.Speedup < 1.5 {
		t.Fatalf("reported speedup = %.2f, want > 1.5", par.Speedup)
	}
}

// cancelingSolver wraps a solver and cancels the fleet context after the
// first observation, deterministically aborting mid-campaign.
type cancelingSolver struct {
	solver.Solver
	cancel context.CancelFunc
}

func (c *cancelingSolver) Observe(samples []solver.Sample) {
	c.Solver.Observe(samples)
	c.cancel()
}

func TestRunCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	campaigns := quickCampaigns(3, 32)
	res, err := Run(ctx, campaigns, Options{
		Workcells: 1,
		Seed:      5,
		NewSolver: func(c Campaign, rng *sim.RNG) (solver.Solver, error) {
			sol := solver.Solver(baseline.NewRandom(rng, 4))
			if c.ID == 1 {
				sol = &cancelingSolver{Solver: sol, cancel: cancel}
			}
			return sol, nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed != 0 {
		t.Fatalf("completed = %d, want 0", res.Completed)
	}
	if res.Canceled != 3 {
		t.Fatalf("canceled = %d, want 3", res.Canceled)
	}
	// The first campaign was aborted mid-run: it produced some samples but
	// fewer than its budget.
	first := res.Campaigns[0]
	if first.Samples == 0 || first.Samples >= 32 {
		t.Fatalf("first campaign samples = %d, want partial progress", first.Samples)
	}
	if first.Err == nil || !errors.Is(first.Err, context.Canceled) {
		t.Fatalf("first campaign err = %v", first.Err)
	}
}

// sickCellPool registers the n local cells Run would build for opts and
// campaigns as its Workcells pool, on a registry closed with the test, with
// cell 0's engine dropping every command at reception (fault RNG seeded by
// faultSeed).
func sickCellPool(t *testing.T, opts Options, campaigns []Campaign, n int, faultSeed int64) *Registry {
	t.Helper()
	reg := NewRegistry(RegistryOptions{Seed: opts.Seed})
	t.Cleanup(reg.Close)
	stock := plateDemand(campaigns, opts.LanesPerCell)
	for w := 0; w < n; w++ {
		spec := localSpec(opts, w, stock)
		if w == 0 {
			open := spec.Open
			spec.Open = func(ctx context.Context) (Cell, error) {
				cell, err := open(ctx)
				if err == nil {
					cell.Engine().Faults = sim.NewInjector(sim.FaultPlan{PReceive: 1}, sim.NewRNG(faultSeed))
				}
				return cell, err
			}
		}
		if _, err := reg.Add(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestRunReschedulesOffFaultyWorkcell breaks one workcell permanently (every
// command drops at reception) and checks its campaign is rescheduled onto a
// healthy workcell, the sick cell retires, and the fleet still completes.
func TestRunReschedulesOffFaultyWorkcell(t *testing.T) {
	campaigns := quickCampaigns(4, 8)
	store := portal.NewStore()
	opts := Options{LanesPerCell: 1, Seed: 3, Portal: store}
	opts.Registry = sickCellPool(t, opts, campaigns, 2, 99)
	res, err := Run(context.Background(), campaigns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d, want 4 (failed=%d: %+v)", res.Completed, res.Failed, res.Campaigns)
	}
	if !res.Workcells[0].Retired {
		t.Fatal("workcell 0 should have retired")
	}
	if res.Workcells[1].Retired {
		t.Fatal("workcell 1 should be healthy")
	}
	if res.Workcells[0].Faults == 0 {
		t.Fatal("workcell 0 recorded no faults")
	}
	rescheduled := 0
	for _, cr := range res.Campaigns {
		if cr.Attempts > 1 {
			rescheduled++
			if cr.Workcell != 1 {
				t.Errorf("rescheduled campaign finished on workcell %d", cr.Workcell)
			}
			// The final attempt's records publish under its attempt number,
			// separable from any partials the failed attempt left behind.
			recs := store.Search(portal.Query{
				Experiment: "fleet_" + cr.Campaign.Name,
				Run:        cr.Attempts, HasRun: true,
			})
			if len(recs) == 0 {
				t.Errorf("no records for rescheduled campaign attempt %d", cr.Attempts)
			}
		}
	}
	if rescheduled != 1 {
		t.Fatalf("rescheduled campaigns = %d, want 1", rescheduled)
	}
}

// TestRunPoisonedCampaignContained: a campaign whose own config fails on any
// workcell (OT-2 module name that exists nowhere) must not cascade — it
// retires at most one cell and the rest of the fleet completes.
func TestRunPoisonedCampaignContained(t *testing.T) {
	campaigns := quickCampaigns(4, 8)
	campaigns[0].Config.OT2 = "missing_ot2"
	res, err := Run(context.Background(), campaigns, Options{Workcells: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Completed != 3 {
		t.Fatalf("failed=%d completed=%d, want 1/3 (%+v)", res.Failed, res.Completed, res.Campaigns)
	}
	poisoned := res.Campaigns[0]
	if poisoned.Status != StatusFailed || poisoned.Attempts != 2 {
		t.Fatalf("poisoned campaign = %s after %d attempts (%v)",
			poisoned.Status, poisoned.Attempts, poisoned.Err)
	}
	retired := 0
	for _, wc := range res.Workcells {
		if wc.Retired {
			retired++
		}
	}
	if retired != 1 {
		t.Fatalf("retired workcells = %d, want 1", retired)
	}
}

// TestRunAllWorkcellsFaulty drains the queue as failures instead of
// deadlocking when no healthy workcell remains.
func TestRunAllWorkcellsFaulty(t *testing.T) {
	campaigns := quickCampaigns(4, 8)
	res, err := Run(context.Background(), campaigns, Options{
		Workcells: 2,
		Seed:      3,
		Faults:    sim.FaultPlan{PReceive: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 || res.Failed != 4 {
		t.Fatalf("completed=%d failed=%d, want 0/4", res.Completed, res.Failed)
	}
	for i, cr := range res.Campaigns {
		if cr.Status != StatusFailed || cr.Err == nil {
			t.Errorf("campaign %d = %s, %v", i, cr.Status, cr.Err)
		}
		if cr.Attempts == 0 && cr.Workcell != -1 {
			t.Errorf("never-run campaign %d attributed to workcell %d", i, cr.Workcell)
		}
	}
	if !res.Workcells[0].Retired || !res.Workcells[1].Retired {
		t.Fatal("both workcells should have retired")
	}
}

func TestRunPublishesFleetSummary(t *testing.T) {
	// One workcell so both campaigns share it: publish counts must still be
	// per-campaign, not cumulative across the shared cell.
	store := portal.NewStore()
	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{
		Workcells: 1, Seed: 13, Portal: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range res.Campaigns {
		// 8 samples at batch 4 = 2 iterations = 2 published records each.
		if n := len(cr.Result.RecordIDs); n != 2 {
			t.Errorf("campaign %d published = %d, want 2", i, n)
		}
	}
	recs := store.Search(portal.Query{Experiment: "fleet"})
	if len(recs) != 1 {
		t.Fatalf("fleet summary records = %d, want 1 (store has %d)", len(recs), store.Len())
	}
	if recs[0].Fields["completed"] != 2 {
		t.Errorf("summary fields = %+v", recs[0].Fields)
	}
	// Per-campaign iteration records were published too, keyed by the
	// attempt number (1: completed first try).
	if store.Len() <= 1 {
		t.Fatalf("store has only %d records", store.Len())
	}
	camp := store.Search(portal.Query{Experiment: "fleet_c01"})
	if len(camp) == 0 {
		t.Fatal("no records for campaign c01")
	}
	for _, r := range camp {
		if r.Run != 1 {
			t.Fatalf("first-attempt record has run %d, want 1", r.Run)
		}
	}
}

func TestRunUnknownSolverFails(t *testing.T) {
	campaigns := []Campaign{{Solver: "nope", Config: core.Config{TotalSamples: 8}}}
	res, err := Run(context.Background(), campaigns, Options{Workcells: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.Campaigns[0].Err == nil {
		t.Fatalf("result = %+v", res.Campaigns[0])
	}
}
