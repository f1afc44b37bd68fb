package device

import (
	"errors"
	"testing"
	"time"

	"colormatch/internal/sim"
)

func TestWorldPlateLifecycle(t *testing.T) {
	w := NewWorld(sim.NewSimClockAt(sim.Epoch), 2)
	if w.StockRemaining() != 2 {
		t.Fatalf("stock = %d", w.StockRemaining())
	}
	p, err := w.TakeNewPlate(LocSciclopsExchange)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != "plate-001" {
		t.Fatalf("plate id %q", p.ID)
	}
	if _, err := w.TakeNewPlate(LocSciclopsExchange); !errors.Is(err, ErrOccupied) {
		t.Fatalf("double-stage err = %v", err)
	}
	if err := w.MovePlate(LocSciclopsExchange, LocCamera); err != nil {
		t.Fatal(err)
	}
	got, err := w.PlateAt(LocCamera)
	if err != nil || got != p {
		t.Fatalf("PlateAt = %v, %v", got, err)
	}
	if _, err := w.PlateAt(LocSciclopsExchange); !errors.Is(err, ErrNoPlate) {
		t.Fatalf("vacated location err = %v", err)
	}
	if err := w.MovePlate(LocCamera, LocTrash); err != nil {
		t.Fatal(err)
	}
	if n := len(w.TrashedPlates()); n != 1 {
		t.Fatalf("trashed = %d", n)
	}
	// Second plate, then stock runs out.
	if _, err := w.TakeNewPlate(LocSciclopsExchange); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TakeNewPlate(LocCamera); !errors.Is(err, ErrNoStock) {
		t.Fatalf("empty stock err = %v", err)
	}
}

func TestWorldMoveErrors(t *testing.T) {
	w := NewWorld(sim.NewSimClockAt(sim.Epoch), 3)
	if err := w.MovePlate(LocCamera, LocOT2Deck); !errors.Is(err, ErrNoPlate) {
		t.Fatalf("move from empty: %v", err)
	}
	if _, err := w.TakeNewPlate(LocCamera); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TakeNewPlate(LocOT2Deck); err != nil {
		t.Fatal(err)
	}
	if err := w.MovePlate(LocCamera, LocOT2Deck); !errors.Is(err, ErrOccupied) {
		t.Fatalf("move to occupied: %v", err)
	}
}

func TestWorldReservoirs(t *testing.T) {
	w := NewWorld(sim.NewSimClockAt(sim.Epoch), 1)
	if _, err := w.Reservoirs("ot2"); !errors.Is(err, ErrNoReservoirs) {
		t.Fatalf("unregistered reservoirs: %v", err)
	}
	rs := w.RegisterReservoirs("ot2")
	if len(rs) != w.Model.NumDyes() {
		t.Fatalf("%d reservoirs for %d dyes", len(rs), w.Model.NumDyes())
	}
	got, err := w.Reservoirs("ot2")
	if err != nil || len(got) != len(rs) {
		t.Fatalf("Reservoirs = %v, %v", got, err)
	}
	if rs[0].Capacity != ReservoirCapacityUL {
		t.Fatalf("capacity = %v", rs[0].Capacity)
	}
}

func TestTimingAdvancesClock(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	tm := Timing{Clock: clock}
	spent := tm.Work(42 * time.Second)
	if spent != 42*time.Second {
		t.Fatalf("spent = %v", spent)
	}
	if clock.Now().Sub(sim.Epoch) != 42*time.Second {
		t.Fatalf("clock advanced %v", clock.Now().Sub(sim.Epoch))
	}
}

func TestTimingJitterBounded(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	tm := Timing{Clock: clock, RNG: sim.NewRNG(1), Jitter: 0.05}
	for i := 0; i < 100; i++ {
		spent := tm.Work(100 * time.Second)
		if spent < 95*time.Second || spent > 105*time.Second {
			t.Fatalf("jittered duration %v outside ±5%%", spent)
		}
	}
}

func TestDeckLocation(t *testing.T) {
	if DeckLocation("ot2") != LocOT2Deck {
		t.Fatalf("DeckLocation(ot2) = %q", DeckLocation("ot2"))
	}
	if DeckLocation("ot2_b") != "ot2_b.deck" {
		t.Fatalf("DeckLocation(ot2_b) = %q", DeckLocation("ot2_b"))
	}
}
