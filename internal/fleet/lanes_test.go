package fleet

import (
	"context"
	"testing"

	"colormatch/internal/wei"
)

// TestLanesPipelineMakespan is the tentpole acceptance test: with
// LanesPerCell=2 on the same seed and workload, the fleet makespan must be
// strictly lower than with LanesPerCell=1 — the two campaigns pipeline
// through the cell (one mixes while the other stages or photographs) — and
// the event logs must show that no two steps ever held the same module at
// overlapping virtual times.
func TestLanesPipelineMakespan(t *testing.T) {
	const n, samples, seed = 4, 8, 3
	seq, err := Run(context.Background(), quickCampaigns(n, samples),
		Options{Workcells: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), quickCampaigns(n, samples),
		Options{Workcells: 1, LanesPerCell: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completed != n || par.Completed != n {
		t.Fatalf("completed: K=1 %d, K=2 %d, want %d (K=2 failures: %+v)",
			seq.Completed, par.Completed, n, failures(par))
	}
	if seq.QueueWait != 0 {
		t.Fatalf("K=1 queue wait = %v, want 0 (no lane contention)", seq.QueueWait)
	}
	if par.Makespan >= seq.Makespan {
		t.Fatalf("K=2 makespan %v not lower than K=1 makespan %v", par.Makespan, seq.Makespan)
	}
	if par.Speedup <= 1.0 {
		t.Fatalf("K=2 speedup = %.2f, want > 1 over the net sequential baseline", par.Speedup)
	}

	// Mutual exclusion, asserted from the per-campaign event logs: all
	// campaigns ran on the single cell, so every pair of logs shares its
	// instruments.
	var logs [][]wei.Event
	for _, cr := range par.Campaigns {
		if cr.Result == nil {
			t.Fatalf("campaign %s has no result", cr.Campaign.Name)
		}
		logs = append(logs, cr.Result.Events)
	}
	if err := wei.VerifyModuleExclusion(logs...); err != nil {
		t.Fatalf("module exclusion violated: %v", err)
	}

	// Lane metadata and stats threading.
	if par.Lanes != 2 || par.Workcells[0].Lanes != 2 {
		t.Fatalf("lanes = %d / %d, want 2", par.Lanes, par.Workcells[0].Lanes)
	}
	if seq.Lanes != 1 || seq.Workcells[0].Lanes != 1 {
		t.Fatalf("K=1 lanes = %d / %d, want 1", seq.Lanes, seq.Workcells[0].Lanes)
	}
	usedLanes := map[int]bool{}
	for _, cr := range par.Campaigns {
		usedLanes[cr.Lane] = true
	}
	if !usedLanes[0] || !usedLanes[1] {
		t.Fatalf("campaigns did not spread across lanes: %v", usedLanes)
	}
	// Work counts campaign walls; Busy is the overlapped span — pipelining
	// means more work fit into the span than its length.
	wc := par.Workcells[0]
	if wc.Work <= wc.Busy {
		t.Fatalf("work %v <= busy span %v: no overlap achieved", wc.Work, wc.Busy)
	}
	if wc.Busy != par.Makespan {
		t.Fatalf("busy span %v != makespan %v", wc.Busy, par.Makespan)
	}
	// Contention was real and measured in robot time.
	if par.QueueWait == 0 {
		t.Fatal("two lanes sharing crane/arm/camera recorded zero queue wait")
	}
	if wc.QueueWait != par.QueueWait {
		t.Fatalf("cell queue wait %v != fleet total %v", wc.QueueWait, par.QueueWait)
	}
	// The per-module breakdown surfaced through the aggregate metrics.
	if len(par.Metrics.Modules) == 0 {
		t.Fatal("aggregate metrics carry no module breakdown")
	}
	var modWait int64
	for _, u := range par.Metrics.Modules {
		modWait += int64(u.QueueWait)
	}
	if modWait == 0 {
		t.Fatal("module breakdown lost the queue waits")
	}
}

// TestLanesAcrossMultipleCells checks lanes compose with pool scheduling:
// campaigns spread over 2 cells × 2 lanes, exclusion holds per cell, and
// per-cell spans never exceed the makespan.
func TestLanesAcrossMultipleCells(t *testing.T) {
	const n = 6
	res, err := Run(context.Background(), quickCampaigns(n, 8),
		Options{Workcells: 2, LanesPerCell: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d (%+v)", res.Completed, n, failures(res))
	}
	perCell := map[int][][]wei.Event{}
	for _, cr := range res.Campaigns {
		perCell[cr.Workcell] = append(perCell[cr.Workcell], cr.Result.Events)
	}
	if len(perCell) != 2 {
		t.Fatalf("campaigns used %d cells, want 2", len(perCell))
	}
	for w, logs := range perCell {
		if err := wei.VerifyModuleExclusion(logs...); err != nil {
			t.Fatalf("cell %d: %v", w, err)
		}
	}
	for _, wc := range res.Workcells {
		if wc.Busy > res.Makespan {
			t.Fatalf("cell %d busy span %v exceeds makespan %v", wc.Index, wc.Busy, res.Makespan)
		}
		if wc.Utilization < 0 || wc.Utilization > 1 {
			t.Fatalf("cell %d utilization = %v", wc.Index, wc.Utilization)
		}
	}
}

// TestLanesSickCellRetiresOnce breaks one of two laned cells and checks the
// retirement logic holds with sibling lanes: the cell retires exactly once,
// its campaigns reschedule onto the healthy cell, and the fleet completes.
func TestLanesSickCellRetiresOnce(t *testing.T) {
	campaigns := quickCampaigns(4, 8)
	opts := Options{LanesPerCell: 2, Seed: 5}
	opts.Registry = sickCellPool(t, opts, campaigns, 2, 17)
	res, err := Run(context.Background(), campaigns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Fatalf("completed = %d, want 4 (%+v)", res.Completed, failures(res))
	}
	if !res.Workcells[0].Retired {
		t.Fatal("sick cell did not retire")
	}
	if res.Workcells[1].Retired {
		t.Fatal("healthy cell retired")
	}
	for _, cr := range res.Campaigns {
		if cr.Workcell != 1 {
			t.Errorf("campaign %s finished on workcell %d", cr.Campaign.Name, cr.Workcell)
		}
	}
}

// failures summarizes non-completed campaigns for test diagnostics.
func failures(res *Result) []string {
	var out []string
	for _, cr := range res.Campaigns {
		if cr.Status != StatusCompleted {
			out = append(out, cr.Campaign.Name+": "+string(cr.Status)+": "+errString(cr.Err))
		}
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
