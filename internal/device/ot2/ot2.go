// Package ot2 simulates the Opentrons OT-2 automated pipetting robot: "an
// automatic pipetting device that contains four separate color reservoirs
// and a set of pipette tips. Once the pf400 has delivered a plate to the
// ot2 deck, it mixes liquids in the proportions set by the optimization
// algorithm to generate new sample colors."
//
// The protocol interpreter draws real volumes from the module's reservoirs
// and dispenses them into the plate on the deck, so reservoir depletion and
// plate fill level emerge from the same liquid accounting the physical
// system has. The timing model is calibrated so a one-well protocol takes
// ~145s, reproducing the paper's 5h10m synthesis time over 128 samples.
package ot2

import (
	"context"
	"fmt"
	"time"

	"colormatch/internal/device"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// Timing model components.
const (
	// SetupDuration covers homing, labware calibration checks and protocol
	// upload, paid once per run_protocol command.
	SetupDuration = 25 * time.Second
	// TipChangeDuration is a tip pickup + drop per well.
	TipChangeDuration = 12 * time.Second
	// DispensePerDye is an aspirate+dispense cycle for one dye into one well.
	DispensePerDye = 24 * time.Second
	// MixDuration is the final pipette-mix of a well.
	MixDuration = 12 * time.Second
)

// WellDuration is the modeled per-well protocol time.
func WellDuration(numDyes int) time.Duration {
	return TipChangeDuration + time.Duration(numDyes)*DispensePerDye + MixDuration
}

// WellOrder is one well's dispense instruction within a protocol.
type WellOrder struct {
	Well    labware.WellAddress
	Volumes []float64 // per dye, microliters
}

// Module is the OT-2 WEI module.
type Module struct {
	*wei.Base
	world      *device.World
	timing     *device.Timing
	reservoirs []*labware.Reservoir
	deck       string
}

// New returns an OT-2 module bound to the world, registering its reservoir
// set. Its deck location is derived from the module name, so a second OT-2
// ("ot2_b") gets its own deck.
func New(name string, world *device.World, rng *sim.RNG) *Module {
	m := &Module{
		Base:       wei.NewBase(name, "liquid_handler", "Opentrons OT-2 pipetting robot (simulated)"),
		world:      world,
		timing:     &device.Timing{Clock: world.Clock, RNG: rng, Jitter: 0.04},
		reservoirs: world.RegisterReservoirs(name),
		deck:       device.DeckLocation(name),
	}
	m.Register(wei.ActionInfo{
		Name:        "run_protocol",
		Description: "dispense and mix the specified dye volumes into plate wells",
		Args:        []string{"protocol", "wells"},
	}, m.runProtocol)
	m.Register(wei.ActionInfo{
		Name:        "status",
		Description: "report reservoir volumes and deck occupancy",
	}, m.status)
	return m
}

// ParseWells decodes the JSON-shaped "wells" argument into WellOrders.
// It accepts the forms produced both in-process ([]WellOrder passthrough)
// and over HTTP ([]any of map[string]any).
func ParseWells(v any, numDyes int) ([]WellOrder, error) {
	if orders, ok := v.([]WellOrder); ok {
		return orders, nil
	}
	list, ok := v.([]any)
	if !ok {
		return nil, fmt.Errorf("ot2: wells argument must be a list, got %T", v)
	}
	out := make([]WellOrder, 0, len(list))
	for i, item := range list {
		m, ok := item.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("ot2: wells[%d] must be an object, got %T", i, item)
		}
		wellStr, ok := m["well"].(string)
		if !ok {
			return nil, fmt.Errorf("ot2: wells[%d] missing well address", i)
		}
		addr, err := labware.ParseWell(wellStr)
		if err != nil {
			return nil, fmt.Errorf("ot2: wells[%d]: %w", i, err)
		}
		volsAny, ok := m["volumes"].([]any)
		if !ok {
			return nil, fmt.Errorf("ot2: wells[%d] missing volumes list", i)
		}
		if len(volsAny) != numDyes {
			return nil, fmt.Errorf("ot2: wells[%d] has %d volumes for %d dyes", i, len(volsAny), numDyes)
		}
		vols := make([]float64, len(volsAny))
		for j, vv := range volsAny {
			switch n := vv.(type) {
			case float64:
				vols[j] = n
			case int64:
				vols[j] = float64(n)
			case int:
				vols[j] = float64(n)
			default:
				return nil, fmt.Errorf("ot2: wells[%d].volumes[%d] not numeric: %T", i, j, vv)
			}
			if vols[j] < 0 {
				return nil, fmt.Errorf("ot2: wells[%d].volumes[%d] negative", i, j)
			}
		}
		out = append(out, WellOrder{Well: addr, Volumes: vols})
	}
	return out, nil
}

// EncodeWells converts WellOrders to the JSON-friendly argument form.
func EncodeWells(orders []WellOrder) []any {
	out := make([]any, len(orders))
	for i, o := range orders {
		vols := make([]any, len(o.Volumes))
		for j, v := range o.Volumes {
			vols[j] = v
		}
		out[i] = map[string]any{"well": o.Well.String(), "volumes": vols}
	}
	return out
}

func (m *Module) runProtocol(ctx context.Context, args wei.Args) (wei.Result, error) {
	orders, err := ParseWells(args["wells"], m.world.Model.NumDyes())
	if err != nil {
		return nil, err
	}
	if len(orders) == 0 {
		return nil, fmt.Errorf("ot2: protocol has no wells")
	}
	plate, err := m.world.PlateAt(m.deck)
	if err != nil {
		return nil, fmt.Errorf("ot2: no plate on deck: %w", err)
	}

	m.timing.Work(SetupDuration)
	numDyes := m.world.Model.NumDyes()
	done := make([]string, 0, len(orders))
	for _, o := range orders {
		// Draw from reservoirs first: an empty reservoir aborts before the
		// well is touched, as the physical pipette would aspirate air.
		for i, v := range o.Volumes {
			if v == 0 {
				continue
			}
			if err := m.reservoirs[i].Draw(v); err != nil {
				return nil, fmt.Errorf("ot2: well %s: %w", o.Well, err)
			}
		}
		if err := plate.Dispense(o.Well, o.Volumes); err != nil {
			return nil, fmt.Errorf("ot2: well %s: %w", o.Well, err)
		}
		m.timing.Work(WellDuration(numDyes))
		done = append(done, o.Well.String())
	}
	wells := make([]any, len(done))
	for i, wname := range done {
		wells[i] = wname
	}
	return wei.Result{
		"protocol":    args["protocol"],
		"wells_mixed": wells,
		"plate_used":  float64(plate.Used()),
	}, nil
}

func (m *Module) status(ctx context.Context, args wei.Args) (wei.Result, error) {
	vols := make([]any, len(m.reservoirs))
	names := make([]any, len(m.reservoirs))
	for i, r := range m.reservoirs {
		vols[i] = r.Volume()
		names[i] = r.Name
	}
	res := wei.Result{"reservoir_volumes": vols, "reservoir_names": names}
	if p, err := m.world.PlateAt(m.deck); err == nil {
		res["plate_id"] = p.ID
		res["plate_used"] = float64(p.Used())
	}
	return res, nil
}
