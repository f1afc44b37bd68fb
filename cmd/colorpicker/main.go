// Command colorpicker runs one color-matching experiment end to end on the
// simulated workcell and prints the trace, the best match, and the SDL
// metrics. It is the command-line face of the paper's color_picker_app.py.
//
//	colorpicker -batch 1 -samples 128 -solver genetic -seed 7
//	colorpicker -target 7a3c96 -metric delta-e-2000 -stop 5
//	colorpicker -events events.jsonl -records runs/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"colormatch/internal/color"
	"colormatch/internal/core"
	"colormatch/internal/experiments"
	"colormatch/internal/metrics"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

func main() {
	var (
		batch      = flag.Int("batch", 1, "batch size B (samples per iteration)")
		samples    = flag.Int("samples", 128, "total sample budget N")
		solverName = flag.String("solver", "genetic", "solver: genetic|genetic-grid|bayesian|random|grid|analytic")
		seed       = flag.Int64("seed", 1, "experiment seed")
		targetHex  = flag.String("target", "787878", "target color as RRGGBB hex (paper: 787878)")
		metricName = flag.String("metric", "euclidean-rgb", "scoring metric: euclidean-rgb|delta-e-76|delta-e-94|delta-e-2000")
		stop       = flag.Float64("stop", 0, "stop early when best score <= this (0 = run full budget)")
		eventsOut  = flag.String("events", "", "write the event log (JSON lines) to this file")
		resultOut  = flag.String("save", "", "save the full result (samples, trace, metrics) as JSON to this file")
		recordsDir = flag.String("records", "", "write per-workflow step timing files into this directory")
		quiet      = flag.Bool("quiet", false, "suppress the per-iteration trace")
	)
	flag.Parse()

	target, err := color.ParseHex(*targetHex)
	if err != nil {
		fatal(err)
	}
	metric, ok := color.ParseMetric(*metricName)
	if !ok {
		fatal(fmt.Errorf("unknown metric %q", *metricName))
	}

	wc := core.NewSimWorkcell(core.WorkcellOptions{Seed: *seed})
	log := wei.NewEventLog(wc.Clock)
	engine := wei.NewEngine(wc.Registry, wc.Clock, log)
	engine.RecordDir = *recordsDir
	sol, err := experiments.NewSolver(*solverName, sim.NewRNG(*seed).Derive("solver"), target)
	if err != nil {
		fatal(err)
	}
	app, err := core.NewApp(core.Config{
		Experiment:   "colorpicker_cli",
		Target:       target,
		Metric:       metric,
		BatchSize:    *batch,
		TotalSamples: *samples,
		StopScore:    *stop,
	}, engine, sol)
	if err != nil {
		fatal(err)
	}
	store := portal.NewStore()
	app.Dest = store

	res, err := app.Run(context.Background())
	if err != nil {
		fatal(err)
	}

	if !*quiet {
		fmt.Println("sample  elapsed      score   best")
		for _, p := range res.Trace {
			fmt.Printf("%6d  %9s  %6.1f  %6.1f\n",
				p.Sample, p.Elapsed.Round(1e9), p.Score, p.Best)
		}
		fmt.Println()
	}
	fmt.Printf("solver=%s B=%d N=%d seed=%d\n", sol.Name(), *batch, *samples, *seed)
	fmt.Printf("best match #%02x%02x%02x at score %.2f (target #%02x%02x%02x)\n",
		res.Best.Color.R, res.Best.Color.G, res.Best.Color.B, res.Best.Score,
		target.R, target.G, target.B)
	fmt.Printf("experiment time %v, %d plates, %d records published\n\n",
		res.Elapsed().Round(1e9), res.Plates, len(res.RecordIDs))
	metrics.RenderTable1(os.Stdout, res.Metrics)

	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := log.WriteJSON(f); err != nil {
			fatal(err)
		}
	}
	if *resultOut != "" {
		if err := core.SaveResult(*resultOut, res); err != nil {
			fatal(err)
		}
	}
	// A failed delivery does not stop the run, so it is reported last,
	// once every output is written.
	if res.PublishErr != nil {
		fatal(res.PublishErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "colorpicker:", err)
	os.Exit(1)
}
