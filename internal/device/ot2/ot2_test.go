package ot2

import (
	"context"
	"strings"
	"testing"

	"colormatch/internal/device"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
)

func setup(t *testing.T) (*Module, *device.World, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 2)
	m := New("ot2", world, nil)
	rs, err := world.Reservoirs("ot2")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		r.Fill(r.Capacity)
	}
	return m, world, clock
}

func plateOnDeck(t *testing.T, world *device.World) *labware.Plate {
	t.Helper()
	p, err := world.TakeNewPlate(device.LocOT2Deck)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunProtocolConservesLiquid(t *testing.T) {
	m, world, _ := setup(t)
	plate := plateOnDeck(t, world)
	vols := []float64{60, 70, 80, 65}
	_, err := m.Act(context.Background(), "run_protocol", map[string]any{
		"wells": EncodeWells([]WellOrder{{Well: labware.WellAt(0), Volumes: vols}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, _ := world.Reservoirs("ot2")
	totalDrawn := 0.0
	for i, r := range rs {
		drawn := device.ReservoirCapacityUL - r.Volume()
		if drawn != vols[i] {
			t.Fatalf("reservoir %d drawn %v, want %v", i, drawn, vols[i])
		}
		totalDrawn += drawn
	}
	got := plate.Contents(labware.WellAt(0))
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != totalDrawn {
		t.Fatalf("well holds %v, reservoirs lost %v", sum, totalDrawn)
	}
}

func TestRunProtocolDuration(t *testing.T) {
	m, world, clock := setup(t)
	plateOnDeck(t, world)
	var orders []WellOrder
	for i := 0; i < 3; i++ {
		orders = append(orders, WellOrder{Well: labware.WellAt(i), Volumes: []float64{50, 50, 50, 50}})
	}
	start := clock.Now()
	if _, err := m.Act(context.Background(), "run_protocol",
		map[string]any{"wells": EncodeWells(orders)}); err != nil {
		t.Fatal(err)
	}
	want := SetupDuration + 3*WellDuration(4)
	if got := clock.Now().Sub(start); got != want {
		t.Fatalf("duration %v, want %v", got, want)
	}
}

func TestRunProtocolEmptyWellsRejected(t *testing.T) {
	m, world, _ := setup(t)
	plateOnDeck(t, world)
	if _, err := m.Act(context.Background(), "run_protocol",
		map[string]any{"wells": []any{}}); err == nil || !strings.Contains(err.Error(), "no wells") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunProtocolRequiresPlate(t *testing.T) {
	m, _, _ := setup(t)
	orders := EncodeWells([]WellOrder{{Well: labware.WellAt(0), Volumes: []float64{1, 1, 1, 1}}})
	if _, err := m.Act(context.Background(), "run_protocol",
		map[string]any{"wells": orders}); err == nil || !strings.Contains(err.Error(), "no plate") {
		t.Fatalf("err = %v", err)
	}
}

func TestStatusReportsReservoirsAndPlate(t *testing.T) {
	m, world, _ := setup(t)
	res, err := m.Act(context.Background(), "status", nil)
	if err != nil {
		t.Fatal(err)
	}
	vols := res["reservoir_volumes"].([]any)
	if len(vols) != 4 || vols[0] != device.ReservoirCapacityUL {
		t.Fatalf("volumes = %v", vols)
	}
	if _, ok := res["plate_id"]; ok {
		t.Fatal("plate reported with empty deck")
	}
	plateOnDeck(t, world)
	res, _ = m.Act(context.Background(), "status", nil)
	if res["plate_id"] == nil {
		t.Fatal("plate not reported")
	}
}

func TestEncodeParseWellsRoundTrip(t *testing.T) {
	orders := []WellOrder{
		{Well: labware.WellAt(5), Volumes: []float64{1, 2, 3, 4}},
		{Well: labware.WellAt(95), Volumes: []float64{0, 0, 275, 0}},
	}
	back, err := ParseWells(EncodeWells(orders), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("len = %d", len(back))
	}
	for i := range orders {
		if back[i].Well != orders[i].Well {
			t.Fatalf("well %d: %v vs %v", i, back[i].Well, orders[i].Well)
		}
		for j := range orders[i].Volumes {
			if back[i].Volumes[j] != orders[i].Volumes[j] {
				t.Fatalf("volumes %d differ", i)
			}
		}
	}
}

func TestParseWellsPassthrough(t *testing.T) {
	orders := []WellOrder{{Well: labware.WellAt(0), Volumes: []float64{1, 2, 3, 4}}}
	back, err := ParseWells(orders, 4)
	if err != nil || len(back) != 1 {
		t.Fatalf("passthrough failed: %v, %v", back, err)
	}
}

func TestDeckNameDerivation(t *testing.T) {
	world := device.NewWorld(sim.NewSimClockAt(sim.Epoch), 1)
	b := New("ot2_b", world, nil)
	if b.deck != "ot2_b.deck" {
		t.Fatalf("deck = %q", b.deck)
	}
	// Each OT-2 gets its own reservoir set.
	if _, err := world.Reservoirs("ot2_b"); err != nil {
		t.Fatal(err)
	}
}
