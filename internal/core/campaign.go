package core

import (
	"context"

	"colormatch/internal/portal"
	"colormatch/internal/solver"
	"colormatch/internal/wei"
)

// RunCampaign is the poolable campaign entrypoint: it wires an App for one
// campaign onto an existing engine and runs it to termination. Workcells and
// engines are long-lived (one per physical or simulated cell); apps are
// cheap and per-campaign, so a fleet scheduler calls this once per campaign
// with an engine forked via wei.Engine.WithLog for a private event log.
//
// gate, when non-nil, is the camera gate held across each photo workflow in
// DeckMode — required whenever several campaigns share one workcell's camera
// (lane pipelining, multi-OT2 operation). Pass nil for a campaign that has
// the workcell to itself.
//
// dest, when non-nil, receives the campaign's records as one keyed batch
// delivered before RunCampaign returns, on success and failure alike; the
// outcome is in Result.RecordIDs and Result.PublishErr. The returned Result
// is valid (partial) even when an error is returned.
func RunCampaign(ctx context.Context, cfg Config, engine *wei.Engine, sol solver.Solver, gate Gate, dest portal.Ingestor) (*Result, error) {
	app, err := NewApp(cfg, engine, sol)
	if err != nil {
		return nil, err
	}
	app.CameraGate = gate
	app.Dest = dest
	return app.Run(ctx)
}
