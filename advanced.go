package colormatch

// This file exposes the composable layer beneath Run: the simulated
// workcell, the WEI engine and transports, and the data portal. Use these
// when the one-call facade is too coarse — e.g. to serve modules over HTTP,
// share one workcell between several application loops, or attach a custom
// solver, fault plan, or portal. Publishing needs no extra wiring: set an
// App's Dest to a portal store or client, and Run delivers the run's
// records there as one keyed batch when it returns.

import (
	"context"
	"net/http"

	"colormatch/internal/core"
	"colormatch/internal/fleet"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// WorkcellOptions configure NewWorkcell.
type WorkcellOptions = core.WorkcellOptions

// Workcell is a fully wired simulated RPL workcell.
type Workcell = core.SimWorkcell

// NewWorkcell builds the simulated workcell: shared physical world, the
// five instrument modules (plus extra OT-2s when requested), and a module
// registry usable directly as an in-process client or served over HTTP.
func NewWorkcell(opts WorkcellOptions) *Workcell {
	return core.NewSimWorkcell(opts)
}

// Engine executes workflows against a workcell with retries, fault
// injection, timing records and an event log.
type Engine = wei.Engine

// EventLog is the experiment's structured event record — the input to the
// Table 1 metrics.
type EventLog = wei.EventLog

// ModuleClient dispatches commands to workcell modules (in-process registry
// or HTTP).
type ModuleClient = wei.Client

// NewEngine wires an engine for the given client and clock.
func NewEngine(client ModuleClient, wc *Workcell) (*Engine, *EventLog) {
	log := wei.NewEventLog(wc.Clock)
	return wei.NewEngine(client, wc.Clock, log), log
}

// App is the color-picker application loop (paper Figure 2).
type App = core.App

// NewApp wires an application against an engine and solver.
func NewApp(cfg Config, engine *Engine, sol Solver) (*App, error) {
	return core.NewApp(cfg, engine, sol)
}

// ServeWorkcell returns an HTTP handler exposing every module of the
// workcell, as cmd/workcell does.
func ServeWorkcell(wc *Workcell) http.Handler {
	return wei.ServeModules(wc.Registry)
}

// NewHTTPModuleClient returns a module client that reaches the named
// modules at the given base URL (a cmd/workcell server).
func NewHTTPModuleClient(baseURL string, modules ...string) ModuleClient {
	return wei.NewHTTPClient(baseURL, modules...)
}

// NewPortalStore returns an in-memory data portal store.
func NewPortalStore() *PortalStore { return portal.NewStore() }

// ServePortal returns the portal's HTTP handler, as cmd/portal does.
func ServePortal(store *PortalStore) http.Handler { return portal.Serve(store) }

// PortalClient publishes to and queries a remote portal.
type PortalClient = portal.Client

// NewPortalClient returns a client for a portal served at baseURL.
func NewPortalClient(baseURL string) *PortalClient { return portal.NewClient(baseURL) }

// CameraGate serializes camera access across concurrent loops in DeckMode.
// Pass the workcell's SimClock (or nil under the real clock).
func NewCameraGate(wc *Workcell) core.Gate {
	return core.NewCameraGate(wc.SimClock)
}

// FaultPlan configures command-channel fault injection on an engine.
type FaultPlan = sim.FaultPlan

// InjectFaults attaches a fault injector to an engine.
func InjectFaults(engine *Engine, plan FaultPlan, seed int64) {
	engine.Faults = sim.NewInjector(plan, sim.NewRNG(seed))
}

// FleetCampaign describes one campaign queued on the fleet scheduler.
type FleetCampaign = fleet.Campaign

// FleetOptions configure a fleet run (pool size, batch, faults, publishing).
type FleetOptions = fleet.Options

// FleetResult is a fleet run's outcome: per-campaign results, per-workcell
// utilization, virtual-time makespan, and speedup over a sequential
// single-workcell baseline.
type FleetResult = fleet.Result

// RunFleet executes campaigns concurrently across a pool of simulated
// workcells: the next free workcell takes the next queued campaign,
// campaigns failing on a sick workcell are rescheduled onto healthy ones,
// and cancellation drains at workflow-step boundaries.
func RunFleet(ctx context.Context, campaigns []FleetCampaign, opts FleetOptions) (*FleetResult, error) {
	return fleet.Run(ctx, campaigns, opts)
}
