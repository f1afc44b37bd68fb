// Package core implements the paper's primary contribution: the color
// picker application — closed-loop, autonomous color matching on a modular
// robotic workcell (paper §2.3, Figure 2).
//
// One App instance reproduces color_picker_app.py: it runs the
// cp_wf_newplate / cp_wf_mix_colors / cp_wf_trashplate / cp_wf_replenish
// workflows through the WEI engine, processes each camera frame with the
// vision pipeline, grades samples against the target color, feeds the
// solver, publishes every iteration's data to the portal, and applies the
// plate-full / reservoir-low / wells-in-budget checks until the termination
// criteria are met.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/device"
	"colormatch/internal/device/camera"
	"colormatch/internal/device/ot2"
	"colormatch/internal/labware"
	"colormatch/internal/metrics"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/vision"
	"colormatch/internal/wei"
)

// DefaultTarget is the paper's target color, RGB=(120,120,120).
var DefaultTarget = color.RGB8{R: 120, G: 120, B: 120}

// Config parameterizes one experiment.
type Config struct {
	// Experiment names the dataset on the portal.
	Experiment string
	// Target is the color to match (default DefaultTarget).
	Target color.RGB8
	// Metric scores the best-so-far trace (default Euclidean RGB, the
	// Figure 4 y-axis).
	Metric color.Metric
	// GradeMetric is the metric fed to the solver as sample grades; the
	// paper's GA grades with "delta e distance" while Figure 4 plots
	// Euclidean RGB. Defaults to Metric (for near-gray targets the two are
	// strongly correlated and the dynamics are indistinguishable).
	GradeMetric color.Metric
	// GradeMetricSet marks GradeMetric as explicitly chosen (so the
	// zero-valued Euclidean metric can still be selected).
	GradeMetricSet bool
	// BatchSize is B: samples proposed, mixed and measured per iteration.
	BatchSize int
	// TotalSamples is N: the experiment's total well budget (paper: 128).
	TotalSamples int
	// StopScore terminates early once the best score reaches it (<=0
	// disables; the paper's runs always exhaust the budget).
	StopScore float64
	// OT2 is the liquid-handler module to use (default "ot2").
	OT2 string
	// WellVolume is the per-well total dispense volume in µL (default 275).
	WellVolume float64
	// ReservoirMargin is extra per-dye volume demanded beyond the next
	// batch's worst case before triggering cp_wf_replenish (default 300µL).
	ReservoirMargin float64
	// DeckMode keeps the plate on the OT-2 deck between iterations,
	// visiting the shared camera only for exposures. Required when several
	// application loops share one workcell (multi-OT2 operation).
	DeckMode bool
	// RunNumber, when positive, overrides the run number attached to
	// published records (campaigns publish several application runs into
	// one experiment).
	RunNumber int
}

func (c *Config) defaults() {
	if c.Experiment == "" {
		c.Experiment = "color_picker"
	}
	if c.Target == (color.RGB8{}) {
		c.Target = DefaultTarget
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.TotalSamples == 0 {
		c.TotalSamples = 128
	}
	if c.OT2 == "" {
		c.OT2 = "ot2"
	}
	if c.WellVolume == 0 {
		c.WellVolume = device.WellVolumeUL
	}
	if c.ReservoirMargin == 0 {
		c.ReservoirMargin = 300
	}
}

// TracePoint is one sample's contribution to the Figure 4 series.
type TracePoint struct {
	Sample  int           // 1-based sample sequence number
	Elapsed time.Duration // experiment time when the sample was measured
	Score   float64
	Best    float64 // best score so far including this sample
}

// Result is the outcome of one experiment. Sample scores (and Best) carry
// the solver's grades (GradeMetric); TracePoint scores carry the trace
// metric (Metric). With the defaults the two coincide.
type Result struct {
	Config  Config
	Start   time.Time
	End     time.Time
	Samples []solver.Sample
	Trace   []TracePoint
	Best    solver.Sample
	Metrics metrics.Summary
	Plates  int
	Events  []wei.Event
	// RecordIDs are the portal-assigned IDs of the run's published
	// records, in iteration order; nil when delivery failed.
	RecordIDs []string
	// PublishErr reports records that could not be delivered to the
	// portal. It does not fail the run.
	PublishErr error
}

// Elapsed returns the experiment's duration.
func (r *Result) Elapsed() time.Duration { return r.End.Sub(r.Start) }

// Gate serializes access to a shared resource (the camera mount) across
// concurrent application loops. Implementations used with the virtual clock
// must deregister as clock workers while blocked; see NewCameraGate.
type Gate interface {
	Lock()
	Unlock()
}

// NewCameraGate returns a Gate safe to use with a SimClock running multiple
// workers: a loop blocked on the gate deregisters itself so virtual time can
// advance for the loop holding the camera, and Unlock re-registers the next
// waiter before handing the gate over, so the releasing loop's next sleep
// cannot advance the clock past the hand-off. It is a wei.Reservations
// lease on the camera, FIFO-fair like the module leases. clock may be nil
// (no clock accounting).
func NewCameraGate(clock *sim.SimClock) Gate {
	var c sim.Clock = sim.RealClock{}
	if clock != nil {
		c = clock
	}
	return cameraGate{wei.NewReservations(c)}
}

type cameraGate struct{ leases *wei.Reservations }

func (g cameraGate) Lock() { g.leases.Acquire("camera") }

func (g cameraGate) Unlock() { g.leases.Release("camera") }

// App is one color-picker experiment run.
type App struct {
	Config   Config
	Engine   *wei.Engine
	Solver   solver.Solver
	Analyzer *vision.Analyzer
	// Dest, when set, receives every iteration's record: Run queues them
	// and delivers them as one keyed batch when it returns.
	Dest portal.Ingestor
	// CameraGate, when set in DeckMode, is held across each photo workflow.
	CameraGate Gate

	wfNewPlate, wfMix, wfPhoto, wfTrash, wfReplenish *wei.WorkflowSpec
	numDyes                                          int
}

// NewApp wires an application. engine must already target a workcell that
// exposes the five canonical modules (plus cfg.OT2 if non-default).
func NewApp(cfg Config, engine *wei.Engine, sol solver.Solver) (*App, error) {
	cfg.defaults()
	a := &App{
		Config:   cfg,
		Engine:   engine,
		Solver:   sol,
		Analyzer: vision.NewAnalyzer(),
		numDyes:  4,
	}
	var err error
	if cfg.DeckMode {
		a.wfNewPlate, a.wfMix, a.wfPhoto, a.wfTrash, a.wfReplenish, err = WorkflowsDeck(cfg.OT2)
	} else {
		a.wfNewPlate, a.wfMix, a.wfTrash, a.wfReplenish, err = Workflows(cfg.OT2)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// baseParams are the workflow parameters common to every run.
func (a *App) baseParams() map[string]any {
	return map[string]any{
		"ot2":      a.Config.OT2,
		"ot2_deck": device.DeckLocation(a.Config.OT2),
	}
}

// Run executes the experiment to termination. The returned Result is valid
// (partial) even when an error is returned, so resilience experiments can
// measure how far a run got before an unrecoverable failure. With Dest set,
// Run delivers the records published so far before it returns, on every
// return path.
func (a *App) Run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := a.Config
	res := &Result{Config: cfg, Start: a.Engine.Clock.Now()}
	var buf *portal.Buffer
	if a.Dest != nil {
		buf = portal.NewBuffer(a.Dest)
	}
	defer func() {
		res.End = a.Engine.Clock.Now()
		res.Events = a.Engine.Log.Events()
		res.Metrics = metrics.Compute(res.Events, len(res.Samples))
		if buf == nil {
			return
		}
		ids, err := buf.Deliver(ctx)
		if err != nil {
			res.PublishErr = fmt.Errorf("core: deliver records: %w", err)
		}
		res.RecordIDs = ids
	}()

	plateOnCamera := false
	wellsUsed := 0
	iteration := 0
	best := float64(1<<62 - 1)

	for len(res.Samples) < cfg.TotalSamples {
		if cfg.StopScore > 0 && best <= cfg.StopScore {
			a.note(fmt.Sprintf("target reached: best=%.2f <= stop=%.2f", best, cfg.StopScore))
			break
		}
		// Check: new plate needed (start, or previous plate trashed).
		if !plateOnCamera {
			if _, err := a.Engine.RunWorkflow(ctx, a.wfNewPlate, a.baseParams()); err != nil {
				// "Resources exhausted" is a termination criterion, not a
				// failure: an empty plate store ends the experiment with
				// whatever samples were produced. The string match keeps the
				// check transport-agnostic (errors cross HTTP as text).
				if strings.Contains(err.Error(), "storage towers are empty") {
					a.note(fmt.Sprintf("plate stock exhausted after %d samples", len(res.Samples)))
					break
				}
				return res, fmt.Errorf("core: new plate: %w", err)
			}
			plateOnCamera = true
			wellsUsed = 0
			res.Plates++
		}

		// Loop check: enough wells in budget (and on the plate).
		batch := cfg.BatchSize
		if rem := cfg.TotalSamples - len(res.Samples); batch > rem {
			batch = rem
		}
		if rem := labware.PlateWells - wellsUsed; batch > rem {
			batch = rem
		}

		// Check: replenish colors if the next batch could drain a reservoir.
		if err := a.maybeReplenish(ctx, batch); err != nil {
			return res, err
		}

		// Solver proposes the batch (step 1 of §2.1). ProposeN routes through
		// the BatchProposer seam: batch-aware solvers get one joint call,
		// anything else its plain Propose with a sequential top-up if it
		// under-delivers.
		proposals := solver.ProposeN(a.Solver, batch)
		if len(proposals) != batch {
			return res, fmt.Errorf("core: solver proposed %d of %d", len(proposals), batch)
		}
		orders := make([]ot2.WellOrder, batch)
		for i, p := range proposals {
			norm := solver.Normalize(p)
			vols := make([]float64, a.numDyes)
			for j := range vols {
				vols[j] = norm[j] * cfg.WellVolume
			}
			orders[i] = ot2.WellOrder{Well: labware.WellAt(wellsUsed + i), Volumes: vols}
		}

		// Workcell mixes and photographs the batch (step 2).
		params := a.baseParams()
		params["wells"] = ot2.EncodeWells(orders)
		rec, err := a.Engine.RunWorkflow(ctx, a.wfMix, params)
		if err != nil {
			return res, fmt.Errorf("core: mix colors: %w", err)
		}
		if a.Config.DeckMode {
			// In deck mode the photo is a separate workflow guarded by the
			// shared-camera gate. Time blocked on the gate is queue wait in
			// robot time, logged so the per-module breakdowns (and the fleet
			// speedup's net-of-contention sequential baseline) include gate
			// contention alongside module-lease waits.
			if a.CameraGate != nil {
				beforeGate := a.Engine.Clock.Now()
				a.CameraGate.Lock()
				if wait := a.Engine.Clock.Now().Sub(beforeGate); wait > 0 {
					a.Engine.Log.Append(wei.Event{Kind: wei.EvGateWait, Module: "camera", QueueWait: wait})
				}
			}
			rec, err = a.Engine.RunWorkflow(ctx, a.wfPhoto, a.baseParams())
			if a.CameraGate != nil {
				a.CameraGate.Unlock()
			}
			if err != nil {
				return res, fmt.Errorf("core: photograph plate: %w", err)
			}
		}
		iteration++
		wellsUsed += batch

		// Image processing (step 3, §2.4).
		frame, analysis, err := a.analyzeFrame(rec)
		if err != nil {
			return res, err
		}

		// Grade the batch and update the trace. The solver sees GradeMetric
		// scores; the trace (Figure 4's y-axis) uses Metric.
		gradeMetric := cfg.Metric
		if cfg.GradeMetricSet {
			gradeMetric = cfg.GradeMetric
		}
		batchSamples := make([]solver.Sample, batch)
		for i, o := range orders {
			got := analysis.WellColors[o.Well.Index()]
			score := cfg.Metric.Distance(got, cfg.Target)
			grade := score
			if gradeMetric != cfg.Metric {
				grade = gradeMetric.Distance(got, cfg.Target)
			}
			batchSamples[i] = solver.Sample{Ratios: solver.Normalize(proposals[i]), Color: got, Score: grade}
			if score < best {
				best = score
			}
			res.Samples = append(res.Samples, batchSamples[i])
			res.Trace = append(res.Trace, TracePoint{
				Sample:  len(res.Samples),
				Elapsed: a.Engine.Clock.Now().Sub(res.Start),
				Score:   score,
				Best:    best,
			})
		}

		// Publish (step 4): queued for delivery at the end of the run, so
		// the robots never wait on the portal.
		if buf != nil {
			if err := a.publish(buf, iteration, batchSamples, best, frame); err != nil {
				return res, err
			}
		}

		// Solver evaluates the data (step 5).
		a.Engine.Log.Append(wei.Event{Kind: wei.EvCompute, Note: fmt.Sprintf("solver %s iteration %d", a.Solver.Name(), iteration)})
		a.Solver.Observe(batchSamples)

		// Check: plate full (step 6).
		if wellsUsed >= labware.PlateWells {
			if _, err := a.Engine.RunWorkflow(ctx, a.wfTrash, a.baseParams()); err != nil {
				return res, fmt.Errorf("core: trash plate: %w", err)
			}
			plateOnCamera = false
		}
	}

	// Termination: dispose of the final plate (paper: "the application runs
	// cp_wf_trashplate again to finalize the experiment").
	if plateOnCamera {
		if _, err := a.Engine.RunWorkflow(ctx, a.wfTrash, a.baseParams()); err != nil {
			return res, fmt.Errorf("core: final trash plate: %w", err)
		}
	}
	if b, ok := solver.Best(res.Samples); ok {
		res.Best = b
	}
	return res, nil
}

// maybeReplenish runs cp_wf_replenish when the worst-case next batch could
// exhaust a reservoir.
func (a *App) maybeReplenish(ctx context.Context, batch int) error {
	st, err := a.Engine.Client.Act(ctx, a.Config.OT2, "status", nil)
	if err != nil {
		return fmt.Errorf("core: reservoir status: %w", err)
	}
	vols, _ := st["reservoir_volumes"].([]any)
	need := float64(batch)*a.Config.WellVolume + a.Config.ReservoirMargin
	low := false
	for _, v := range vols {
		f, ok := v.(float64)
		if ok && f < need {
			low = true
			break
		}
	}
	if !low {
		return nil
	}
	if _, err := a.Engine.RunWorkflow(ctx, a.wfReplenish, a.baseParams()); err != nil {
		return fmt.Errorf("core: replenish: %w", err)
	}
	return nil
}

// analyzeFrame pulls the camera frame out of the mix workflow's record and
// runs the vision pipeline.
func (a *App) analyzeFrame(rec *wei.RunRecord) ([]byte, *vision.Result, error) {
	var frame []byte
	for _, step := range rec.Steps {
		if step.Action == "take_picture" && step.Result != nil {
			var err error
			frame, err = camera.DecodeFrame(step.Result)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	if frame == nil {
		return nil, nil, errors.New("core: mix workflow produced no camera frame")
	}
	img, err := vision.DecodePNG(frame)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decode frame: %w", err)
	}
	analysis, err := a.Analyzer.Analyze(img)
	if err != nil {
		return nil, nil, fmt.Errorf("core: analyze frame: %w", err)
	}
	return frame, analysis, nil
}

// publish queues the iteration's record in buf.
func (a *App) publish(buf *portal.Buffer, iteration int, batch []solver.Sample, best float64, frame []byte) error {
	colors := make([]any, len(batch))
	scores := make([]any, len(batch))
	ratios := make([]any, len(batch))
	for i, s := range batch {
		colors[i] = fmt.Sprintf("#%02x%02x%02x", s.Color.R, s.Color.G, s.Color.B)
		scores[i] = s.Score
		rr := make([]any, len(s.Ratios))
		for j, v := range s.Ratios {
			rr[j] = v
		}
		ratios[i] = rr
	}
	runNumber := iteration
	if a.Config.RunNumber > 0 {
		runNumber = a.Config.RunNumber
	}
	rec := portal.Record{
		Experiment: a.Config.Experiment,
		Run:        runNumber,
		Time:       a.Engine.Clock.Now(),
		Fields: map[string]any{
			"solver":     a.Solver.Name(),
			"batch_size": a.Config.BatchSize,
			"samples":    len(batch),
			"colors":     colors,
			"scores":     scores,
			"ratios":     ratios,
			"best_score": best,
			"target": fmt.Sprintf("#%02x%02x%02x",
				a.Config.Target.R, a.Config.Target.G, a.Config.Target.B),
		},
		Files: map[string][]byte{"plate.png": frame},
	}
	if err := buf.Add(rec); err != nil {
		return fmt.Errorf("core: publish: %w", err)
	}
	a.Engine.Log.Append(wei.Event{Kind: wei.EvPublish, Note: fmt.Sprintf("iteration %d", iteration)})
	return nil
}

// note appends a free-text event to the experiment log.
func (a *App) note(msg string) {
	a.Engine.Log.Append(wei.Event{Kind: wei.EvNote, Note: msg})
}
