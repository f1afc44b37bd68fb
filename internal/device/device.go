// Package device provides the shared physical-world model that the five
// instrument simulators (sciclops, pf400, ot2, barty, camera) operate on:
// where plates are, what liquids wells and reservoirs hold, and how much
// plate stock remains in the storage towers.
//
// The World is what makes the simulated workcell honest: the OT-2 can only
// dispense into a plate that the PF400 actually delivered to its deck, the
// camera can only photograph the plate on its mount, and reservoirs only
// hold what barty pumped into them. The application cannot cheat around the
// workflows — exactly as on the physical RPL workcell.
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"colormatch/internal/color/mix"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
)

// Well-known locations of the single-OT2 RPL workcell. A second liquid
// handler introduces its own deck location via DeckLocation.
const (
	LocSciclopsExchange = "sciclops.exchange"
	LocCamera           = "camera"
	LocOT2Deck          = "ot2.deck"
	LocTrash            = "trash"
)

// DeckLocation returns the deck location of a liquid-handler module.
func DeckLocation(module string) string { return module + ".deck" }

// WellVolumeUL is the total liquid volume dispensed per well by the
// color-picker protocol.
const WellVolumeUL = 275.0

// ReservoirCapacityUL is the capacity of each OT-2 dye reservoir.
const ReservoirCapacityUL = 25000.0

// World is the shared physical state of the simulated workcell.
type World struct {
	Clock sim.Clock
	Model *mix.Model // dye optics, shared by the OT-2 contents and the camera

	mu         sync.Mutex
	plates     map[string]*labware.Plate
	reservoirs map[string][]*labware.Reservoir
	plateSeq   int
	stock      int
	trashed    []*labware.Plate
}

// NewWorld returns a world with the given plate stock in the sciclops
// towers.
func NewWorld(clock sim.Clock, stockPlates int) *World {
	return &World{
		Clock:      clock,
		Model:      mix.NewModel(),
		plates:     make(map[string]*labware.Plate),
		reservoirs: make(map[string][]*labware.Reservoir),
		stock:      stockPlates,
	}
}

// Errors returned by world operations. They model real mechanical failure
// modes (two plates cannot occupy one nest; an empty tower yields nothing).
var (
	ErrNoPlate      = errors.New("device: no plate at location")
	ErrOccupied     = errors.New("device: location already holds a plate")
	ErrNoStock      = errors.New("device: plate storage towers are empty")
	ErrNoReservoirs = errors.New("device: module has no registered reservoirs")
)

// RegisterReservoirs creates one reservoir per dye of the world's mix model
// for the given liquid-handler module.
func (w *World) RegisterReservoirs(module string) []*labware.Reservoir {
	w.mu.Lock()
	defer w.mu.Unlock()
	rs := make([]*labware.Reservoir, w.Model.NumDyes())
	for i, d := range w.Model.Dyes {
		rs[i] = labware.NewReservoir(fmt.Sprintf("%s/%s", module, d.Name), ReservoirCapacityUL)
	}
	w.reservoirs[module] = rs
	return rs
}

// Reservoirs returns the reservoir set of a liquid-handler module.
func (w *World) Reservoirs(module string) ([]*labware.Reservoir, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	rs, ok := w.reservoirs[module]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoReservoirs, module)
	}
	return rs, nil
}

// TakeNewPlate removes a plate from stock and places it at loc.
func (w *World) TakeNewPlate(loc string) (*labware.Plate, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stock <= 0 {
		return nil, ErrNoStock
	}
	if _, occupied := w.plates[loc]; occupied {
		return nil, fmt.Errorf("%w: %s", ErrOccupied, loc)
	}
	w.stock--
	w.plateSeq++
	p := labware.NewPlate(fmt.Sprintf("plate-%03d", w.plateSeq))
	w.plates[loc] = p
	return p, nil
}

// PlateAt returns the plate at loc.
func (w *World) PlateAt(loc string) (*labware.Plate, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.plates[loc]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoPlate, loc)
	}
	return p, nil
}

// MovePlate transfers the plate at from to to. Moving to LocTrash disposes
// of the plate.
func (w *World) MovePlate(from, to string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.plates[from]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoPlate, from)
	}
	if to == LocTrash {
		delete(w.plates, from)
		w.trashed = append(w.trashed, p)
		return nil
	}
	if _, occupied := w.plates[to]; occupied {
		return fmt.Errorf("%w: %s", ErrOccupied, to)
	}
	delete(w.plates, from)
	w.plates[to] = p
	return nil
}

// StockRemaining returns the number of fresh plates left in the towers.
func (w *World) StockRemaining() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stock
}

// TrashedPlates returns the disposed plates, oldest first.
//
//lint:ignore testonly test seam: the one view of what the trash holds, which pf400, device and core tests check after a campaign
func (w *World) TrashedPlates() []*labware.Plate {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*labware.Plate, len(w.trashed))
	copy(out, w.trashed)
	return out
}

// Timing models an instrument's action durations and its single-unit
// nature: a modeled base duration perturbed by a small uniform jitter,
// executed against a busy-until reservation so that concurrent callers
// queue — one physical arm cannot perform two transfers at once. Work is a
// discrete-event resource acquisition: with the virtual clock, a caller
// finding the instrument busy sleeps (in virtual time) until its
// reservation starts, exactly like a command queued at a device computer.
type Timing struct {
	Clock  sim.Clock
	RNG    *sim.RNG
	Jitter float64 // fractional jitter, e.g. 0.05 for ±5%

	mu        sync.Mutex
	busyUntil time.Time
}

// Work reserves the instrument for the jittered duration, sleeping through
// any queueing delay plus the work itself. It returns the work duration
// (excluding queueing).
func (t *Timing) Work(d time.Duration) time.Duration {
	actual := d
	if t.RNG != nil && t.Jitter > 0 {
		actual = time.Duration(t.RNG.Jitter(float64(d), t.Jitter))
	}
	t.mu.Lock()
	now := t.Clock.Now()
	start := now
	if t.busyUntil.After(start) {
		start = t.busyUntil
	}
	end := start.Add(actual)
	t.busyUntil = end
	t.mu.Unlock()
	t.Clock.Sleep(end.Sub(now))
	return actual
}
