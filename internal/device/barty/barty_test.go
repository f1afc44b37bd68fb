package barty

import (
	"context"
	"testing"
	"time"

	"colormatch/internal/device"
	"colormatch/internal/sim"
)

func setup(t *testing.T) (*Module, *device.World, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 1)
	world.RegisterReservoirs("ot2")
	return New("barty", world, nil), world, clock
}

func TestFillColorsFillsAll(t *testing.T) {
	m, world, _ := setup(t)
	res, err := m.Act(context.Background(), "fill_colors", map[string]any{"module": "ot2"})
	if err != nil {
		t.Fatal(err)
	}
	added := res["added_ul"].([]any)
	if len(added) != 4 || added[0] != device.ReservoirCapacityUL {
		t.Fatalf("added = %v", added)
	}
	rs, _ := world.Reservoirs("ot2")
	for _, r := range rs {
		if r.Volume() != r.Capacity {
			t.Fatalf("%s not full", r.Name)
		}
	}
}

func TestDrainColorsEmptiesAll(t *testing.T) {
	m, world, _ := setup(t)
	rs, _ := world.Reservoirs("ot2")
	for _, r := range rs {
		r.Fill(1000)
	}
	res, err := m.Act(context.Background(), "drain_colors", map[string]any{"module": "ot2"})
	if err != nil {
		t.Fatal(err)
	}
	drained := res["drained_ul"].([]any)
	if drained[0] != 1000.0 {
		t.Fatalf("drained = %v", drained)
	}
	for _, r := range rs {
		if r.Volume() != 0 {
			t.Fatalf("%s not empty", r.Name)
		}
	}
}

func TestRefillReplacesContents(t *testing.T) {
	m, world, _ := setup(t)
	rs, _ := world.Reservoirs("ot2")
	rs[2].Fill(123)
	if _, err := m.Act(context.Background(), "refill_colors", map[string]any{"module": "ot2"}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Volume() != r.Capacity {
			t.Fatalf("%s = %v after refill", r.Name, r.Volume())
		}
	}
}

func TestPumpTimeProportionalToVolume(t *testing.T) {
	m, world, clock := setup(t)
	rs, _ := world.Reservoirs("ot2")
	// Pre-fill 80%: only 5000µL deficit → 20s pumping + setup.
	for _, r := range rs {
		r.Fill(r.Capacity * 0.8)
	}
	start := clock.Now()
	if _, err := m.Act(context.Background(), "fill_colors", map[string]any{"module": "ot2"}); err != nil {
		t.Fatal(err)
	}
	want := SetupDuration + time.Duration(0.2*device.ReservoirCapacityUL/PumpRateULPerSec*float64(time.Second))
	if got := clock.Now().Sub(start); got != want {
		t.Fatalf("duration %v, want %v", got, want)
	}
}

func TestUnknownModuleAndMissingArg(t *testing.T) {
	m, _, _ := setup(t)
	ctx := context.Background()
	for _, action := range []string{"fill_colors", "drain_colors", "refill_colors"} {
		if _, err := m.Act(ctx, action, map[string]any{"module": "ghost"}); err == nil {
			t.Fatalf("%s: unknown module accepted", action)
		}
		if _, err := m.Act(ctx, action, nil); err == nil {
			t.Fatalf("%s: missing module arg accepted", action)
		}
	}
}
