package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"colormatch/internal/core"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// scriptClient is a wei.Client whose every command returns a fixed error —
// a cell that is reachable but useless in a specific, classifiable way.
type scriptClient struct{ err error }

func (c *scriptClient) Act(context.Context, string, string, wei.Args) (wei.Result, error) {
	return nil, c.err
}
func (c *scriptClient) State(context.Context, string) (wei.ModuleState, error) {
	return wei.StateError, c.err
}
func (c *scriptClient) About(context.Context, string) (wei.ModuleInfo, error) {
	return wei.ModuleInfo{}, c.err
}

// fixedPool registers one probe-less member per opener, in order, on a
// registry closed with the test: a fixed pool, where a fault is final.
func fixedPool(t testing.TB, opens ...CellOpener) *Registry {
	t.Helper()
	reg := NewRegistry(RegistryOptions{})
	t.Cleanup(reg.Close)
	for _, open := range opens {
		if _, err := reg.Add(MemberSpec{Open: open}); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// simCell wraps a locally provisioned workcell as a Cell.
type simCell struct {
	wc  *core.SimWorkcell
	eng *wei.Engine
}

func newSimCell(seed int64, stock int) *simCell {
	wc := core.NewSimWorkcell(core.WorkcellOptions{Seed: seed, PlateStock: stock})
	return &simCell{wc: wc, eng: wei.NewEngine(wc.Registry, wc.Clock, wei.NewEventLog(wc.Clock))}
}

func (c *simCell) Engine() *wei.Engine                     { return c.eng }
func (c *simCell) Clock() sim.Clock                        { return c.wc.Clock }
func (c *simCell) Prepare(context.Context, Campaign) error { return nil }
func (c *simCell) Close() error                            { return nil }

// brokenCell is a Cell whose engine hits a scripted command error.
func brokenCell(err error) Cell {
	clock := sim.NewSimClock()
	return &simBrokenCell{
		eng:   wei.NewEngine(&scriptClient{err: err}, clock, wei.NewEventLog(clock)),
		clock: clock,
	}
}

type simBrokenCell struct {
	eng   *wei.Engine
	clock sim.Clock
}

func (c *simBrokenCell) Engine() *wei.Engine                     { return c.eng }
func (c *simBrokenCell) Clock() sim.Clock                        { return c.clock }
func (c *simBrokenCell) Prepare(context.Context, Campaign) error { return nil }
func (c *simBrokenCell) Close() error                            { return nil }

// TestWorkcellDownRetiresAndReschedules: a cell whose commands fail with a
// transport error retires and its campaign reschedules onto the healthy
// cell, because a dead cell's failure is no evidence against the campaign.
func TestWorkcellDownRetiresAndReschedules(t *testing.T) {
	down := &wei.TransportError{Op: "act", Err: errors.New("connection refused")}
	pool := fixedPool(t,
		func(context.Context) (Cell, error) { return brokenCell(down), nil },
		func(context.Context) (Cell, error) { return newSimCell(7, 0), nil },
	)
	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{Registry: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d, want 2 (%+v)", res.Completed, res.Campaigns)
	}
	if !res.Workcells[0].Retired || res.Workcells[1].Retired {
		t.Fatalf("retirement = %+v", res.Workcells)
	}
	moved := 0
	for _, cr := range res.Campaigns {
		if cr.Workcell != 1 {
			t.Errorf("campaign %s finished on workcell %d", cr.Campaign.Name, cr.Workcell)
		}
		if cr.Attempts > 1 {
			moved++
		}
	}
	if moved != 1 {
		t.Fatalf("rescheduled campaigns = %d, want 1", moved)
	}
}

// TestPermanentStepFailureDoesNotRetireCell: a campaign whose step error is
// permanent (unknown module) is poisoned — it fails in one scheduling
// attempt and the cell stays in the pool for the remaining campaigns.
func TestPermanentStepFailureDoesNotRetireCell(t *testing.T) {
	perm := &wei.ErrNoModule{Module: "sciclops"}
	pool := fixedPool(t,
		func(context.Context) (Cell, error) { return brokenCell(perm), nil },
	)
	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{Registry: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 2 {
		t.Fatalf("failed = %d, want 2 (%+v)", res.Failed, res.Campaigns)
	}
	for i, cr := range res.Campaigns {
		if cr.Attempts != 1 {
			t.Errorf("campaign %d attempts = %d, want 1 (no reschedule for poisoned config)", i, cr.Attempts)
		}
		if !errors.Is(cr.Err, wei.ErrStepFailed) {
			t.Errorf("campaign %d err = %v", i, cr.Err)
		}
	}
	// The cell processed both campaigns: permanent failures do not retire it.
	if res.Workcells[0].Retired {
		t.Fatal("cell retired on a poisoned campaign")
	}
	if res.Workcells[0].Campaigns != 2 {
		t.Fatalf("cell ran %d campaign attempts, want 2", res.Workcells[0].Campaigns)
	}
}

// TestPrepareFailureRetiresWithoutBurningAttempt: a failed Prepare (health
// gate or session reset) retires the cell and the campaign reschedules with
// its attempt budget intact.
func TestPrepareFailureRetiresWithoutBurningAttempt(t *testing.T) {
	pool := fixedPool(t,
		func(context.Context) (Cell, error) {
			return &prepFailCell{Cell: newSimCell(3, 0)}, nil
		},
		func(context.Context) (Cell, error) { return newSimCell(7, 0), nil },
	)
	res, err := Run(context.Background(), quickCampaigns(2, 8), Options{Registry: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed = %d (%+v)", res.Completed, res.Campaigns)
	}
	if !res.Workcells[0].Retired {
		t.Fatal("prepare-failing cell should retire")
	}
	for i, cr := range res.Campaigns {
		// The failed Prepare burned no attempt: both campaigns completed on
		// their first actual run.
		if cr.Attempts != 1 || cr.Workcell != 1 {
			t.Errorf("campaign %d = attempts %d on workcell %d", i, cr.Attempts, cr.Workcell)
		}
	}
	if res.Workcells[0].Campaigns != 0 {
		t.Fatalf("prepare-failing cell ran %d campaigns", res.Workcells[0].Campaigns)
	}
}

type prepFailCell struct{ Cell }

func (c *prepFailCell) Prepare(context.Context, Campaign) error {
	return &wei.TransportError{Op: "reset", Err: fmt.Errorf("server gone")}
}

// TestProviderOpenFailureOrphansHandled: if every cell fails to open, the
// queue drains as failures instead of hanging.
func TestProviderOpenFailureOrphansHandled(t *testing.T) {
	openErr := errors.New("no route to host")
	pool := fixedPool(t,
		func(context.Context) (Cell, error) { return nil, openErr },
		func(context.Context) (Cell, error) { return nil, openErr },
	)
	res, err := Run(context.Background(), quickCampaigns(3, 8), Options{Registry: pool})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 3 {
		t.Fatalf("failed = %d, want 3", res.Failed)
	}
	for i, cr := range res.Campaigns {
		if cr.Status != StatusFailed || cr.Err == nil || cr.Workcell != -1 {
			t.Errorf("campaign %d = %+v", i, cr)
		}
	}
	if !res.Workcells[0].Retired || !res.Workcells[1].Retired {
		t.Fatal("both cells should be retired")
	}
}

// seqCell scripts cell behavior by global attempt order: shared counter n;
// the cell serving attempt n gets fail[n] as its command error (nil = the
// real simulated workcell). This pins down scheduler policy independent of
// which worker wins the race for the queue.
type seqCell struct {
	*simCell
	seq  *atomic.Int32
	fail map[int32]error
}

func (c *seqCell) Prepare(context.Context, Campaign) error {
	if err := c.fail[c.seq.Add(1)]; err != nil {
		c.eng.Client = &scriptClient{err: err}
	} else {
		c.eng.Client = c.wc.Registry
	}
	return nil
}

// TestWorkcellDownNotChargedAgainstBudget: an attempt cut short by a dying
// cell must not consume the campaign's attempt budget. The campaign
// survives a workcell death AND a genuine sick-cell failure with the
// budget of 2 — if the death were charged, the second failure would
// exhaust the budget and fail the campaign.
func TestWorkcellDownNotChargedAgainstBudget(t *testing.T) {
	var seq atomic.Int32
	fail := map[int32]error{
		1: &wei.TransportError{Op: "act", Err: errors.New("connection reset")},
		2: errors.New("instrument glitch"), // retryable, exhausts step retries
	}
	cells := make([]CellOpener, 3)
	for i := range cells {
		i := i
		cells[i] = func(context.Context) (Cell, error) {
			return &seqCell{simCell: newSimCell(int64(10+i), 0), seq: &seq, fail: fail}, nil
		}
	}
	res, err := Run(context.Background(), quickCampaigns(1, 8), Options{Registry: fixedPool(t, cells...)})
	if err != nil {
		t.Fatal(err)
	}
	cr := res.Campaigns[0]
	if cr.Status != StatusCompleted {
		t.Fatalf("campaign = %s after %d attempts (%v)", cr.Status, cr.Attempts, cr.Err)
	}
	if cr.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (down, sick, success)", cr.Attempts)
	}
	retired := 0
	for _, wc := range res.Workcells {
		if wc.Retired {
			retired++
		}
	}
	if retired != 2 {
		t.Fatalf("retired = %d, want 2", retired)
	}
}

// cancelPrepCell cancels the fleet context from inside Prepare, simulating
// a shutdown racing the pre-campaign health gate.
type cancelPrepCell struct {
	*simCell
	cancel context.CancelFunc
}

func (c *cancelPrepCell) Prepare(ctx context.Context, _ Campaign) error {
	c.cancel()
	return ctx.Err()
}

// TestCancelDuringPrepareDrainsAsCanceled: cancellation surfacing through
// Prepare is not a cell failure — campaigns drain as canceled, not failed,
// and the cell is not retired.
func TestCancelDuringPrepareDrainsAsCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := fixedPool(t,
		func(context.Context) (Cell, error) {
			return &cancelPrepCell{simCell: newSimCell(3, 0), cancel: cancel}, nil
		},
	)
	res, err := Run(ctx, quickCampaigns(2, 8), Options{Registry: pool})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Canceled != 2 || res.Failed != 0 {
		t.Fatalf("canceled=%d failed=%d, want 2/0 (%+v)", res.Canceled, res.Failed, res.Campaigns)
	}
	if res.Workcells[0].Retired {
		t.Fatal("cancellation must not retire the cell")
	}
}
