package fleet

import (
	"context"
	"fmt"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// Cell is one pool member as the scheduler sees it: an engine to fork per
// campaign, the cell's experiment clock, and campaign boundaries. The seam
// lets the same scheduler drive in-process simulated workcells and remote
// workcells behind cmd/workcell-style HTTP servers.
type Cell interface {
	// Engine returns the cell's long-lived engine; the scheduler forks it
	// per campaign via wei.Engine.WithLog so event logs stay separable.
	Engine() *wei.Engine
	// Clock is the cell's experiment clock: virtual for simulated cells,
	// the wall clock for remote ones (their virtual time lives server-side).
	Clock() sim.Clock
	// Prepare readies the cell for one campaign attempt. Remote cells
	// health-gate admission and reset the server session (fresh plate
	// stock, new command-log boundary); local cells are provisioned once at
	// Open and need nothing per campaign. An error retires the cell and the
	// campaign is requeued without burning a scheduling attempt.
	Prepare(ctx context.Context, c Campaign) error
	// Close releases the cell when its worker exits.
	Close() error
}

// LaneSetup tells the scheduler how to run one campaign in a given lane of
// a cell. With several campaigns pipelined through one workcell, each lane
// owns a liquid handler while the plate crane, arm and camera are shared
// under module leases — the LaneSetup carries the per-lane retargeting.
type LaneSetup struct {
	// OT2 is the liquid-handler module the lane's campaigns target ("" keeps
	// the campaign's configured module).
	OT2 string
	// DeckMode forces deck-resident workflows: required whenever lanes share
	// a cell, since the camera mount must stay free between exposures.
	DeckMode bool
	// Gate is the camera gate shared across the cell's lanes (nil when the
	// lane has the camera to itself).
	Gate core.Gate
}

// Laned is implemented by cells that accept several concurrent campaigns.
// The scheduler runs up to Lanes() campaigns at once on such a cell, each
// under the corresponding LaneSetup; plain Cells run one at a time.
type Laned interface {
	// Lanes is the cell's concurrent-campaign capacity K (>= 1).
	Lanes() int
	// Lane describes lane l (0-based, l < Lanes()).
	Lane(l int) LaneSetup
}

// localSpec is member w of the Workcells pool: an in-process simulated
// workcell holding stock plates — plus, with LanesPerCell > 1, one liquid
// handler per lane and a module-lease layer so the lanes pipeline through
// the shared crane, arm and camera. It has no probe, so a fault is final.
func localSpec(opts Options, w, stock int) MemberSpec {
	lanes := opts.LanesPerCell
	return MemberSpec{
		Name: fmt.Sprintf("cell%d", w),
		// Every local cell has one liquid handler per lane and a camera, on a
		// virtual clock.
		Caps:      wei.Capabilities{Lanes: lanes, OT2s: lanes, Camera: true},
		CapsKnown: true,
		Open: func(context.Context) (Cell, error) {
			wc := core.NewSimWorkcell(core.WorkcellOptions{
				Seed:       opts.Seed + int64(1000*(w+1)),
				PlateStock: stock,
				NumOT2:     lanes,
			})
			eng := wei.NewEngine(wc.Registry, wc.Clock, wei.NewEventLog(wc.Clock))
			// Every local engine leases modules around dispatch. With one lane
			// the leases are always free (zero queue wait, unchanged timing);
			// with several they are what keeps pipelined campaigns mutually
			// exclusive on each instrument.
			eng.Reservations = wei.NewReservations(wc.Clock)
			if opts.Faults != (sim.FaultPlan{}) {
				frng := sim.NewRNG(opts.Seed).Derive(fmt.Sprintf("faults_wc%d", w))
				eng.Faults = sim.NewInjector(opts.Faults, frng)
			}
			cell := &localCell{wc: wc, eng: eng, lanes: lanes}
			if lanes > 1 {
				cell.gate = core.NewCameraGate(wc.SimClock)
			}
			return cell, nil
		},
	}
}

type localCell struct {
	wc    *core.SimWorkcell
	eng   *wei.Engine
	lanes int
	gate  core.Gate
}

func (c *localCell) Engine() *wei.Engine { return c.eng }
func (c *localCell) Clock() sim.Clock    { return c.wc.Clock }

// Prepare is a no-op: the local pool provisions plate stock for the whole
// queue at Open, so campaigns share the cell's world as they always have.
func (c *localCell) Prepare(context.Context, Campaign) error { return nil }
func (c *localCell) Close() error                            { return nil }

// Lanes implements Laned.
func (c *localCell) Lanes() int { return c.lanes }

// Lane implements Laned: lane l owns the l-th liquid handler and runs
// deck-resident workflows behind the shared camera gate whenever the cell
// has more than one lane.
func (c *localCell) Lane(l int) LaneSetup {
	if c.lanes <= 1 {
		return LaneSetup{}
	}
	return LaneSetup{OT2: core.OT2Name(l), DeckMode: true, Gate: c.gate}
}

// RemoteOptions configure a remote workcell pool. A module command
// round-trip is bounded by wei.DefaultActTimeout and a health or reset
// round-trip by wei.DefaultControlTimeout.
type RemoteOptions struct {
	// RetryDelay overrides the engines' pause between command attempts
	// (default: engine default; remote cells sleep on the wall clock).
	RetryDelay time.Duration
}

// remoteSpec is a probe-less member over the cmd/workcell-style server at
// url, driven over the wei.HTTPClient wire protocol. Every admission dials
// the server and health-gates it: a cell that cannot answer /healthz, or
// serves no modules, never joins the pool. Registry.AddRemote adds the probe
// that re-admits it after a fault.
func remoteSpec(url string, opts RemoteOptions) MemberSpec {
	return MemberSpec{URL: url, Open: func(ctx context.Context) (Cell, error) {
		wcc := wei.NewWorkcellClient(url)
		health, err := wcc.Health(ctx)
		if err != nil {
			return nil, fmt.Errorf("fleet: workcell %s: %w", url, err)
		}
		if len(health.Modules) == 0 {
			return nil, fmt.Errorf("fleet: workcell %s serves no modules", url)
		}
		client := wcc.ModuleClient(health.Modules...)
		clock := sim.RealClock{}
		eng := wei.NewEngine(client, clock, wei.NewEventLog(clock))
		if opts.RetryDelay > 0 {
			eng.RetryDelay = opts.RetryDelay
		}
		return &remoteCell{wcc: wcc, client: client, eng: eng, clock: clock}, nil
	}}
}

type remoteCell struct {
	wcc    *wei.WorkcellClient
	client *wei.HTTPClient
	eng    *wei.Engine
	clock  sim.Clock
}

func (c *remoteCell) Engine() *wei.Engine { return c.eng }
func (c *remoteCell) Clock() sim.Clock    { return c.clock }

// Prepare health-gates the cell and resets the server session, restoring
// fresh plate stock and starting a per-campaign command-log boundary.
func (c *remoteCell) Prepare(ctx context.Context, camp Campaign) error {
	if _, err := c.wcc.Health(ctx); err != nil {
		return err
	}
	info, err := c.wcc.Reset(ctx, camp.Name)
	if err != nil {
		return err
	}
	// A reset with a provisioning hook swaps in fresh module instances; the
	// set can grow or shrink, so re-point the command client at it. Only
	// this cell's worker touches the map, and never mid-campaign.
	for _, m := range info.Modules {
		c.client.BaseURL[m] = c.wcc.Base
	}
	return nil
}

func (c *remoteCell) Close() error { return nil }
