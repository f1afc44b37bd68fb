package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/render"
)

const (
	// preloadArchives is how many campaigns' worth of records (32 each, one
	// plate.png per record) the store holds before timing starts.
	preloadArchives = 4
	// readRate is the open-loop reader's fixed rate, about half of what one
	// connection sustained with this mix on the commit that introduced the
	// benchmark.
	readRate = 100
	// writeBatch is the records per keyed ingest batch; an archive is four.
	writeBatch = 8
	// searchLimit is the page size the reader asks for.
	searchLimit = 20
	// readGrace is how long past the deadline a backlogged reader drains.
	readGrace = time.Second
)

// portalEnv is the portal workload's deployment: a durable store with
// cmd/portal's auto-compaction default and its event hub, served over
// loopback, preloaded with campaign-shaped records.
type portalEnv struct {
	dir     string
	store   *portal.Store
	hub     *portal.Hub
	servers []*http.Server
	serving sync.WaitGroup
	url     string
	frame   []byte
	exps    []string // preloaded experiments, recordsPerCamp records each
	ids     []string // preloaded record IDs
	closed  bool
}

// renderFrame renders and encodes one camera frame of a plate whose wells
// hold seeded colors, as the camera module would deliver it.
func renderFrame(seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	scene := render.NewScene()
	for i := 0; i < labware.PlateWells; i++ {
		scene.WellColor[i] = color.RGB8{R: uint8(rng.Intn(256)), G: uint8(rng.Intn(256)), B: uint8(rng.Intn(256))}
		scene.Filled[i] = true
	}
	return vision.EncodePNG(scene.Render(aruco.Default(), sim.NewRNG(seed)))
}

// publishRecord builds one iteration record shaped like core.App.publish
// output for a fleet campaign: four samples' colors, scores and ratios, the
// best score so far, and the plate frame.
func publishRecord(rng *rand.Rand, exp string, iter int, frame []byte) portal.Record {
	colors, scores, ratios := make([]any, 4), make([]any, 4), make([]any, 4)
	best := 1e9
	for i := range colors {
		colors[i] = fmt.Sprintf("#%02x%02x%02x", rng.Intn(256), rng.Intn(256), rng.Intn(256))
		score := rng.Float64() * 120
		scores[i] = score
		best = min(best, score)
		rr := make([]any, 4)
		for j := range rr {
			rr[j] = rng.Float64() / 4
		}
		ratios[i] = rr
	}
	return portal.Record{
		Experiment: exp,
		Run:        1,
		Time:       sim.Epoch.Add(time.Duration(iter) * 97 * time.Second),
		Fields: map[string]any{
			"solver":     solverFor(iter),
			"batch_size": 4,
			"samples":    4,
			"colors":     colors,
			"scores":     scores,
			"ratios":     ratios,
			"best_score": best,
			"target":     "#787878",
		},
		Files: map[string][]byte{"plate.png": frame},
	}
}

// archiveBatch is batch b of a campaign archive's records for exp.
func archiveBatch(rng *rand.Rand, exp string, b int, frame []byte) []portal.Record {
	recs := make([]portal.Record, writeBatch)
	for j := range recs {
		recs[j] = publishRecord(rng, exp, b*writeBatch+j, frame)
	}
	return recs
}

func openPortal(seed int64, tr *tracer, dir string) (p *portalEnv, err error) {
	p = &portalEnv{dir: dir}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if p.frame, err = renderFrame(seed); err != nil {
		return p, err
	}
	if p.store, err = portal.OpenStoreWith(dir, portal.Options{AutoCompactSegments: portalCompactSegments}); err != nil {
		return p, err
	}
	if p.hub, err = portal.OpenHub(portal.HubOptions{Dir: filepath.Join(dir, "events")}); err != nil {
		return p, err
	}
	var h http.Handler = portal.Serve(p.store, portal.WithHub(p.hub))
	if tr != nil {
		h = tr.middleware(h, portalPath)
	}
	if p.url, err = serveLoopback(h, &p.servers, &p.serving); err != nil {
		return p, err
	}
	c := portal.NewClient(p.url)
	rng := rand.New(rand.NewSource(seed))
	for a := 0; a < preloadArchives; a++ {
		exp := fmt.Sprintf("fleet_pre%02d", a)
		p.exps = append(p.exps, exp)
		for b := 0; b < recordsPerCamp/writeBatch; b++ {
			ids, err := c.IngestBatchKeyed(fmt.Sprintf("pre-%d-%d", a, b), archiveBatch(rng, exp, b, p.frame))
			if err != nil {
				return p, fmt.Errorf("preload: %w", err)
			}
			p.ids = append(p.ids, ids...)
		}
	}
	return p, nil
}

func (p *portalEnv) close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, s := range p.servers {
		_ = s.Close()
	}
	p.serving.Wait()
	if p.hub != nil {
		_ = p.hub.Close()
	}
	if p.store != nil {
		_ = p.store.Close()
	}
}

// loadStats collects one side of the load generator.
type loadStats struct {
	lat      map[string][]float64 // op → ms from due time (reads) or send (writes)
	late     []float64            // reads: ms the generator ran behind schedule
	ops, err int
	bad      []string
}

func (s *loadStats) fail(format string, args ...any) {
	s.err++
	if len(s.bad) < 5 {
		s.bad = append(s.bad, fmt.Sprintf(format, args...))
	}
}

// read runs the open-loop reader until deadline: requests are due at a
// fixed rate, each timed from when it was due, so a stall is charged to
// every request queued behind it. Requests still unsent a grace period
// after the deadline count as failed.
func (p *portalEnv) read(seed int64, start, deadline time.Time) *loadStats {
	s := &loadStats{lat: map[string][]float64{}}
	c := portal.NewClient(p.url)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * time.Second / readRate)
		if !due.Before(deadline) {
			return s
		}
		if time.Since(deadline) > readGrace {
			missed := int(deadline.Sub(due)*readRate/time.Second) + 1
			s.ops += missed
			s.fail("reader fell %d requests behind schedule", missed)
			s.err += missed - 1
			return s
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		s.late = append(s.late, ms(time.Since(due)))
		s.ops++
		exp := p.exps[rng.Intn(len(p.exps))]
		switch w := rng.Intn(10); {
		case w < 6:
			page, err := c.SearchPage(portal.Query{Experiment: exp, Limit: searchLimit})
			s.lat["search"] = append(s.lat["search"], ms(time.Since(due)))
			switch {
			case err != nil:
				s.fail("search: %v", err)
			case len(page.Records) != searchLimit || page.Next == "":
				s.fail("search %s: page of %d records, want %d and a cursor", exp, len(page.Records), searchLimit)
			case page.Records[0].Experiment != exp || page.Records[0].FileSizes()["plate.png"] != len(p.frame):
				s.fail("search %s: wrong record or attachment size", exp)
			}
		case w < 8:
			sum, err := c.Summary(exp)
			s.lat["summary"] = append(s.lat["summary"], ms(time.Since(due)))
			if err != nil {
				s.fail("summary: %v", err)
			} else if sum.Records != recordsPerCamp || sum.Samples != 4*recordsPerCamp || sum.Images != recordsPerCamp {
				s.fail("summary %s: %d records, %d samples, %d images", exp, sum.Records, sum.Samples, sum.Images)
			}
		default:
			id := p.ids[rng.Intn(len(p.ids))]
			rec, err := c.Get(id)
			s.lat["get"] = append(s.lat["get"], ms(time.Since(due)))
			if err != nil {
				s.fail("get: %v", err)
			} else if !bytes.Equal(rec.Files["plate.png"], p.frame) {
				s.fail("get %s: plate.png differs from the frame ingested", id)
			}
		}
	}
}

// write runs the closed-loop writer until deadline: keyed batches of
// campaign-shaped records into fresh experiments, four batches an archive.
func (p *portalEnv) write(seed int64, deadline time.Time) (*loadStats, int) {
	s := &loadStats{lat: map[string][]float64{}}
	c := portal.NewClient(p.url)
	rng := rand.New(rand.NewSource(seed ^ 0x1de57))
	written := 0
	for n := 0; time.Now().Before(deadline); n++ {
		exp := fmt.Sprintf("fleet_w%03d", n/(recordsPerCamp/writeBatch))
		recs := archiveBatch(rng, exp, n%(recordsPerCamp/writeBatch), p.frame)
		t0 := time.Now()
		ids, err := c.IngestBatchKeyed(fmt.Sprintf("w-%d-%d", seed, n), recs)
		s.lat["ingest"] = append(s.lat["ingest"], ms(time.Since(t0)))
		s.ops++
		if err != nil || len(ids) != len(recs) {
			s.fail("ingest batch %d: %d ids: %v", n, len(ids), err)
			continue
		}
		written += len(ids)
	}
	return s, written
}

// countSnapshots watches the store's segment directory until stop closes
// and returns how many distinct compacted snapshots appeared.
func countSnapshots(dir string, stop <-chan struct{}) int {
	seen := map[string]bool{}
	scan := func() {
		entries, _ := os.ReadDir(filepath.Join(dir, "segments")) // a failed scan just misses one poll
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".snap") {
				seen[e.Name()] = true
			}
		}
	}
	scan()
	before := len(seen)
	for {
		select {
		case <-stop:
			scan()
			return len(seen) - before
		case <-time.After(50 * time.Millisecond):
			scan()
		}
	}
}

// runPortal measures the portal workload.
func runPortal(_ context.Context, rc runConfig) (*outcome, error) {
	out := newOutcome()
	var env *portalEnv
	for i := 0; i < rc.setups; i++ {
		if env != nil {
			env.close()
			_ = os.RemoveAll(env.dir) // a set-up repeat's data is never read again
		}
		t0 := time.Now()
		var err error
		env, err = openPortal(rc.seed, rc.tr, filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	defer env.close()
	if rc.tr != nil {
		rc.tr.reset() // drop the preload's spans
	}
	storedBefore := dirBytes(env.dir)

	stopSnaps := make(chan struct{})
	snaps := make(chan int, 1)
	go func() { snaps <- countSnapshots(env.dir, stopSnaps) }()
	rss, rt0, c0 := startRSS(), readRuntime(), cpuTime()
	start := time.Now()
	deadline := start.Add(rc.seconds)
	var reads *loadStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reads = env.read(rc.seed, start, deadline)
	}()
	writes, written := env.write(rc.seed, deadline)
	wg.Wait()
	rt1, cpu := readRuntime(), cpuTime()-c0
	close(stopSnaps)
	var bounds []time.Time
	for t := start; t.Before(deadline); t = t.Add(time.Second) {
		bounds = append(bounds, t)
	}
	out.peakRSS = rss.peak(append(bounds, deadline))
	out.units = float64(written) / recordsPerCamp
	for _, d := range writes.lat["ingest"] {
		out.rates = append(out.rates, safeDiv(float64(writeBatch)/recordsPerCamp, d/1000))
	}
	out.cpuPer = []float64{safeDiv(cpu.Seconds(), out.units)}

	ops := reads.ops + writes.ops
	out.attempted, out.failed = ops, reads.err+writes.err
	out.problems = append(append(out.problems, reads.bad...), writes.bad...)
	var allReads []float64
	for _, op := range []string{"search", "summary", "get"} {
		allReads = append(allReads, reads.lat[op]...)
	}
	out.stats["read_p50_ms"] = percentile(allReads, 0.5)
	out.stats["read_p99_ms"] = percentile(allReads, 0.99)
	out.stats["ingest_p50_ms"] = percentile(writes.lat["ingest"], 0.5)
	out.stats["ingest_p90_ms"] = percentile(writes.lat["ingest"], 0.9)
	out.stats["loadgen.late_p99_ms"] = percentile(reads.late, 0.99)
	for _, k := range []string{"read_p50_ms", "read_p99_ms", "ingest_p50_ms", "ingest_p90_ms"} {
		out.extra[k] = out.stats[k].Value
	}
	out.layers["loadgen.late_p99_ms"] = out.stats["loadgen.late_p99_ms"].Value
	out.layers["portal.compactions"] = float64(<-snaps)
	out.layers["go.alloc_mb"] = safeDiv(mib(int64(rt1.alloc-rt0.alloc)), float64(ops))
	out.layers["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	out.layers["go.gc_cpu_frac"] = safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	out.extra["stored_mb_per_campaign"] = safeDiv(mib(dirBytes(env.dir)-storedBefore), out.units)
	if rc.tr != nil {
		portalLayers(rc.tr, out, out.units)
		if err := rc.tr.write(rc.tracePath, nil); err != nil {
			return nil, err
		}
	}

	env.close()
	st, err := restartPortal(env.dir, out)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if want := len(env.ids) + written; st.Len() != want {
		out.problems = append(out.problems, fmt.Sprintf("restart: %d records, want %d", st.Len(), want))
	}
	return out, nil
}
