package sciclops

import (
	"context"
	"errors"
	"testing"
	"time"

	"colormatch/internal/device"
	"colormatch/internal/sim"
)

func TestGetPlateStagesAtExchange(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 2)
	m := New("sciclops", world, nil)

	res, err := m.Act(context.Background(), "get_plate", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res["location"] != device.LocSciclopsExchange {
		t.Fatalf("location = %v", res["location"])
	}
	if _, err := world.PlateAt(device.LocSciclopsExchange); err != nil {
		t.Fatal("plate not staged")
	}
	if got := clock.Now().Sub(sim.Epoch); got != GetPlateDuration {
		t.Fatalf("duration %v, want %v", got, GetPlateDuration)
	}
}

func TestGetPlateFailsWhenStockEmpty(t *testing.T) {
	world := device.NewWorld(sim.NewSimClockAt(sim.Epoch), 0)
	m := New("sciclops", world, nil)
	_, err := m.Act(context.Background(), "get_plate", nil)
	if !errors.Is(err, device.ErrNoStock) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatusReportsStock(t *testing.T) {
	world := device.NewWorld(sim.NewSimClockAt(sim.Epoch), 5)
	m := New("sciclops", world, nil)
	res, err := m.Act(context.Background(), "status", nil)
	if err != nil || res["plates_remaining"] != 5.0 {
		t.Fatalf("status = %v, %v", res, err)
	}
}

func TestAboutListsActions(t *testing.T) {
	m := New("sciclops", device.NewWorld(sim.NewSimClockAt(sim.Epoch), 1), nil)
	info := m.About()
	if info.Type != "plate_crane" || len(info.Actions) != 2 {
		t.Fatalf("about = %+v", info)
	}
}

func TestTimingJitterStaysBounded(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 10)
	m := New("sciclops", world, sim.NewRNG(1))
	start := clock.Now()
	if _, err := m.Act(context.Background(), "get_plate", nil); err != nil {
		t.Fatal(err)
	}
	d := clock.Now().Sub(start)
	if d < time.Duration(float64(GetPlateDuration)*0.95) || d > time.Duration(float64(GetPlateDuration)*1.05) {
		t.Fatalf("jittered duration %v outside ±5%% of %v", d, GetPlateDuration)
	}
}
