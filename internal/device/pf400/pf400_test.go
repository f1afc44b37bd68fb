package pf400

import (
	"context"
	"errors"
	"testing"
	"time"

	"colormatch/internal/device"
	"colormatch/internal/sim"
)

func setup(t *testing.T) (*Module, *device.World, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 2)
	return New("pf400", world, nil), world, clock
}

func TestTransferMovesAndTakesTime(t *testing.T) {
	m, world, clock := setup(t)
	if _, err := world.TakeNewPlate(device.LocSciclopsExchange); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	_, err := m.Act(context.Background(), "transfer",
		map[string]any{"source": device.LocSciclopsExchange, "target": device.LocCamera})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := world.PlateAt(device.LocCamera); err != nil {
		t.Fatal("plate not moved")
	}
	want := TransferDuration(device.LocSciclopsExchange, device.LocCamera)
	if got := clock.Now().Sub(start); got != want {
		t.Fatalf("duration %v, want %v", got, want)
	}
}

func TestTransferToTrashDisposes(t *testing.T) {
	m, world, _ := setup(t)
	world.TakeNewPlate(device.LocCamera)
	if _, err := m.Act(context.Background(), "transfer",
		map[string]any{"source": device.LocCamera, "target": device.LocTrash}); err != nil {
		t.Fatal(err)
	}
	if len(world.TrashedPlates()) != 1 {
		t.Fatal("plate not trashed")
	}
}

func TestTransferValidation(t *testing.T) {
	m, world, _ := setup(t)
	ctx := context.Background()
	if _, err := m.Act(ctx, "transfer", map[string]any{"target": "x"}); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := m.Act(ctx, "transfer", map[string]any{"source": "x"}); err == nil {
		t.Fatal("missing target accepted")
	}
	if _, err := m.Act(ctx, "transfer", map[string]any{"source": 3, "target": "x"}); err == nil {
		t.Fatal("non-string source accepted")
	}
	_, err := m.Act(ctx, "transfer",
		map[string]any{"source": device.LocCamera, "target": device.LocOT2Deck})
	if !errors.Is(err, device.ErrNoPlate) {
		t.Fatalf("empty-source err = %v", err)
	}
	_ = world
}

func TestTransferDurationRailDistances(t *testing.T) {
	camOT2 := TransferDuration(device.LocCamera, device.LocOT2Deck)
	exCam := TransferDuration(device.LocSciclopsExchange, device.LocCamera)
	if camOT2 <= exCam {
		t.Fatalf("2-station move %v not longer than 1-station %v", camOT2, exCam)
	}
	// Unknown stations get the 1-station default.
	unknown := TransferDuration("ot2_b.deck", device.LocCamera)
	if unknown != PickDuration+PlaceDuration+TravelPerStation {
		t.Fatalf("unknown-station duration %v", unknown)
	}
	// Same-station reposition still costs one travel unit.
	same := TransferDuration(device.LocCamera, device.LocCamera)
	if same != PickDuration+PlaceDuration+TravelPerStation {
		t.Fatalf("same-station duration %v", same)
	}
}

func TestConcurrentTransfersQueue(t *testing.T) {
	// Two callers using one arm must serialize: total elapsed = 2 transfers.
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 2)
	m := New("pf400", world, nil)
	world.TakeNewPlate(device.LocSciclopsExchange)
	world.TakeNewPlate(device.LocCamera)

	clock.AddWorker(2)
	done := make(chan error, 2)
	go func() {
		_, err := m.Act(context.Background(), "transfer",
			map[string]any{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck})
		clock.DoneWorker()
		done <- err
	}()
	go func() {
		_, err := m.Act(context.Background(), "transfer",
			map[string]any{"source": device.LocCamera, "target": device.LocTrash})
		clock.DoneWorker()
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	elapsed := clock.Now().Sub(sim.Epoch)
	d1 := TransferDuration(device.LocSciclopsExchange, device.LocOT2Deck)
	d2 := TransferDuration(device.LocCamera, device.LocTrash)
	if elapsed < d1+d2 {
		t.Fatalf("concurrent arm use overlapped: %v < %v", elapsed, d1+d2)
	}
	_ = time.Second
}
