// Command perfbench is the repository's benchmark. One invocation runs one
// workload of the closed color-matching loop and prints, as its last line,
// one JSON object with the output-check verdict, operations attempted and
// failed, and the metrics:
//
//	bash perfbench/run.sh --workload local --seed 1 --seconds 20 --trace 0
//
// Workloads: local (two in-process cells), lanes (one cell, two lanes),
// distributed (two HTTP workcells publishing to a durable portal and its
// event stream) and portal (the portal alone under open-loop reads and a
// closed-loop writer). With --trace 0 the run is untraced and reports the
// end-to-end metrics; with --trace 1 the workload runs untraced and then
// traced, and the per-layer metrics are reported. All times are host time.
// See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// runConfig is one measured run of a workload.
type runConfig struct {
	seed      int64
	seconds   time.Duration
	tr        *tracer // nil: untraced
	setups    int     // set-ups timed for setup_s; the last one is measured
	dir       string  // the run's data directory
	tracePath string  // where a traced run writes its spans
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	setupS []float64
	units  float64 // campaigns completed (portal: campaign archives ingested)
	// rates and cpuPer are per-interval throughput (units/s) and CPU
	// seconds per unit; the reported numbers are their medians, so one
	// interval disturbed by the rest of the machine does not move them.
	rates, cpuPer []float64
	peakRSS       int64 // median over intervals of the peak resident set
	attempted     int
	failed        int
	problems      []string
	extra         map[string]float64 // user-visible numbers reported per layer
	layers        map[string]float64
	stats         map[string]stat
}

func newOutcome() *outcome {
	return &outcome{extra: map[string]float64{}, layers: map[string]float64{}, stats: map[string]stat{}}
}

func (o *outcome) perSecond() float64 { return median(o.rates) }

// metricDef is one reported metric as BENCHMARK.json lists it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the untraced metrics every workload reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"campaigns_per_s", "1/s", "higher"},
	{"cpu_s_per_campaign", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced-run metrics every workload reports, zero where
// the workload does not exercise the layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"fleet.campaign_ms.p50", "ms", "lower"},
		{"fleet.cell_idle_frac", "frac", "lower"},
		{"fleet.flush_ms.p50", "ms", "lower"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{"wei.step_ms." + m, "ms", "lower"})
	}
	defs = append(defs, metricDef{"wei.steps", "count", "lower"})
	for _, m := range modules {
		defs = append(defs, metricDef{"wei.server_ms." + m, "ms", "lower"})
	}
	defs = append(defs,
		metricDef{"wei.transport_ms", "ms", "lower"},
		metricDef{"wei.wire_mb", "MB", "lower"},
		metricDef{"core.gate_wait_ms", "ms", "lower"},
		metricDef{"core.self_ms", "ms", "lower"},
		metricDef{"camera.take_picture_ms.p50", "ms", "lower"},
		metricDef{"vision.render_ms", "ms", "lower"},
		metricDef{"vision.encode_png_ms", "ms", "lower"},
		metricDef{"camera.encode_b64_ms", "ms", "lower"},
		metricDef{"camera.decode_frame_ms", "ms", "lower"},
		metricDef{"vision.decode_png_ms", "ms", "lower"},
		metricDef{"vision.analyze_ms", "ms", "lower"},
		metricDef{"vision.frames", "count", "higher"},
	)
	for _, s := range []string{"genetic", "bayesian"} {
		defs = append(defs,
			metricDef{"solver.propose_ms." + s, "ms", "lower"},
			metricDef{"solver.observe_ms." + s, "ms", "lower"})
	}
	for _, op := range []string{"ingest", "events", "search", "summary", "get"} {
		defs = append(defs,
			metricDef{"portal." + op + "_ms.p50", "ms", "lower"},
			metricDef{"portal." + op + "_ms.p99", "ms", "lower"})
	}
	return append(defs,
		metricDef{"portal.ingest_mb", "MB", "lower"},
		metricDef{"portal.events_batches", "count", "lower"},
		metricDef{"portal.compactions", "count", "lower"},
		metricDef{"portal.restart_store_s", "s", "lower"},
		metricDef{"portal.restart_hub_s", "s", "lower"},
		metricDef{"portal.publisher_dropped", "count", "lower"},
		metricDef{"portal.watch_evictions", "count", "lower"},
		metricDef{"loadgen.late_p99_ms", "ms", "lower"},
		metricDef{"go.alloc_mb", "MB", "lower"},
		metricDef{"go.gc_cpu_frac", "frac", "lower"},
		metricDef{"go.gc_cycles", "count", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
		metricDef{"trace.coverage_frac", "frac", "higher"},
		metricDef{"sim_campaigns_per_h", "1/h", "higher"},
		metricDef{"stored_mb_per_campaign", "MB", "lower"},
		metricDef{"watch_lag_p50_ms", "ms", "lower"},
		metricDef{"watch_lag_p99_ms", "ms", "lower"},
		metricDef{"restart_s", "s", "lower"},
		metricDef{"read_p50_ms", "ms", "lower"},
		metricDef{"read_p99_ms", "ms", "lower"},
		metricDef{"ingest_p50_ms", "ms", "lower"},
		metricDef{"ingest_p90_ms", "ms", "lower"},
	)
}()

// workloads maps each workload to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"local": func(ctx context.Context, rc runConfig) (*outcome, error) {
		return runCampaigns(ctx, shape{2, 1, false}, rc)
	},
	"lanes": func(ctx context.Context, rc runConfig) (*outcome, error) {
		return runCampaigns(ctx, shape{1, 2, false}, rc)
	},
	"distributed": func(ctx context.Context, rc runConfig) (*outcome, error) {
		return runCampaigns(ctx, shape{2, 1, true}, rc)
	},
	"portal": runPortal,
}

// setupRepeats is how many set-ups an untraced run times for setup_s.
const setupRepeats = 5

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is printed on the line before the result: the host, the sample
// count and quantile behind every distribution, and any check failures.
type detail struct {
	Workload string          `json:"workload"`
	Host     map[string]any  `json:"host"`
	Samples  map[string]stat `json:"samples"`
	Digest   string          `json:"reference_digest"`
	Problems []string        `json:"problems,omitempty"`
	Trace    string          `json:"trace_file,omitempty"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: local|lanes|distributed|portal")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds  = flag.Int("seconds", 10, "seconds to measure")
		trace    = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, det, err := measure(context.Background(), run, *workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	det.Host["seed"] = *seed
	for _, line := range []any{det, rep} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// measure runs the workload untraced (and then traced, with traced set),
// runs the reference campaigns, and assembles the result.
func measure(ctx context.Context, run func(context.Context, runConfig) (*outcome, error), name string, seed int64, seconds time.Duration, traced bool, dir string) (report, detail, error) {
	det := detail{Workload: name, Host: host(), Samples: map[string]stat{}}
	rc := runConfig{seed: seed, seconds: seconds, setups: setupRepeats, dir: filepath.Join(dir, "untraced")}
	if traced {
		// The untraced and traced halves share the measuring time.
		seconds = max(seconds/2, time.Second)
		rc.seconds, rc.setups = seconds, 1
	}
	plain, err := run(ctx, rc)
	if err != nil {
		return report{}, det, err
	}
	runs := []*outcome{plain}
	var tracedOut *outcome
	if traced {
		det.Trace = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		rc = runConfig{seed: seed, seconds: seconds, tr: newTracer(), setups: 1,
			dir: filepath.Join(dir, "traced"), tracePath: det.Trace}
		if tracedOut, err = run(ctx, rc); err != nil {
			return report{}, det, err
		}
		runs = append(runs, tracedOut)
	}

	ref, frames, err := runReference(ctx, traced)
	if err != nil {
		return report{}, det, err
	}
	det.Digest = ref
	if ref != referenceDigest {
		det.Problems = append(det.Problems, fmt.Sprintf("reference digest %s, recorded %s", ref, referenceDigest))
	}
	rep := report{Metrics: map[string]value{}}
	// The untraced run goes last so that, for the numbers both runs
	// measure, the samples shown are the ones reported.
	for i := len(runs) - 1; i >= 0; i-- {
		o := runs[i]
		rep.Attempted += o.attempted
		rep.Failed += o.failed
		det.Problems = append(det.Problems, o.problems...)
		for k, v := range o.stats {
			det.Samples[k] = v
		}
	}
	det.Samples["setup_s"] = percentile(plain.setupS, 0.5)
	det.Samples["campaigns_per_s"] = percentile(plain.rates, 0.5)
	det.Samples["cpu_s_per_campaign"] = percentile(plain.cpuPer, 0.5)
	if !traced {
		vals := map[string]float64{
			"setup_s":            median(plain.setupS),
			"campaigns_per_s":    plain.perSecond(),
			"cpu_s_per_campaign": median(plain.cpuPer),
			"peak_rss_mb":        mib(plain.peakRSS),
		}
		for _, m := range endToEnd {
			rep.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
	} else {
		vals := map[string]float64{}
		for k, v := range tracedOut.layers {
			vals[k] = v
		}
		for k, v := range plain.extra { // user-visible numbers come from the untraced run
			vals[k] = v
		}
		replayed, err := replay(frames)
		if err != nil {
			det.Problems = append(det.Problems, err.Error())
		}
		for k, s := range replayed {
			vals[k] = s.Value
			det.Samples[k] = s
		}
		vals["vision.frames"] = float64(len(frames))
		vals["trace.overhead_frac"] = safeDiv(plain.perSecond(), tracedOut.perSecond()) - 1
		for _, m := range perLayer {
			rep.Metrics[m.Name] = value{vals[m.Name], m.Unit}
		}
	}
	rep.Correct = len(det.Problems) == 0
	if !rep.Correct {
		rep.Metrics = map[string]value{} // metrics are printed only once the checks pass
	}
	return rep, det, nil
}

// host describes the machine a result was measured on.
func host() map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runtimeSnap is the Go runtime's cumulative allocation and GC counters.
type runtimeSnap struct {
	alloc, gcCycles uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSnap{
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}
