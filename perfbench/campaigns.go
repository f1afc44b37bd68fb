package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/fleet"
	"colormatch/internal/portal"
	"colormatch/internal/wei"
)

// shape is a campaign workload's pool: cells × lanes, in process or behind
// hosted workcell servers publishing to a hosted portal.
type shape struct {
	cells, lanes int
	remote       bool
}

const (
	// campaignSamples is the paper's 128-sample budget; at batch 4 a
	// campaign publishes one record per iteration.
	campaignSamples = 128
	recordsPerCamp  = campaignSamples / 4
	// warmupSamples sizes the one warm-up campaign per lane run at set-up.
	warmupSamples = 16
	// portalCompactSegments is cmd/portal's -compact-segments default.
	portalCompactSegments = 8
	// watchBuffer is the hub's per-watcher buffer on the distributed
	// workload.
	watchBuffer = 1024
)

// campaignEnv is one set-up campaign workload.
type campaignEnv struct {
	shape shape
	seed  int64
	tr    *tracer
	dist  *distEnv // remote shapes only
}

// setupCampaigns builds the workload's pool and runs one short warm-up
// campaign per lane through it, so pool construction, admission and lazy
// initialisation are done before timing starts.
func setupCampaigns(ctx context.Context, sh shape, seed int64, tr *tracer, dir string) (*campaignEnv, error) {
	e := &campaignEnv{shape: sh, seed: seed, tr: tr}
	if sh.remote {
		d, err := openDist(ctx, seed, tr, dir)
		if err != nil {
			return nil, err
		}
		e.dist = d
	}
	camps := make([]fleet.Campaign, sh.cells*sh.lanes)
	for i := range camps {
		camps[i] = fleet.Campaign{Name: fmt.Sprintf("warm%02d", i), Solver: solverFor(i), Config: protocol(warmupSamples)}
	}
	res, err := fleet.Run(ctx, camps, e.options(seed, false))
	if err == nil && res.Completed != len(camps) {
		err = fmt.Errorf("warm-up: %d of %d campaigns completed", res.Completed, len(camps))
	}
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// options configures one fleet.Run. Timed runs publish and stream on the
// remote shape and carry the tracing wrappers when traced.
func (e *campaignEnv) options(seed int64, timed bool) fleet.Options {
	o := fleet.Options{Batch: 4, Seed: seed}
	if e.dist != nil {
		o.Registry = e.dist.reg
	} else {
		o.Workcells, o.LanesPerCell = e.shape.cells, e.shape.lanes
	}
	if !timed {
		return o
	}
	if e.dist != nil {
		o.Portal = e.dist.client
		o.EventSink = e.dist.pub
	}
	if e.tr != nil {
		o.NewSolver = e.tr.newSolver
		o.EventSink = e.tr.sink(o.EventSink)
	}
	return o
}

func (e *campaignEnv) close() {
	if e.dist != nil {
		e.dist.close()
	}
}

// round is one fleet.Run of the timed phase.
type round struct {
	start, end time.Time
	cpu        time.Duration
	res        *fleet.Result
}

// roundCampaigns is round r's queue: two campaigns per lane, solvers
// alternating, seeds derived from the workload seed.
func roundCampaigns(seed int64, r, n int) []fleet.Campaign {
	camps := make([]fleet.Campaign, n)
	for i := range camps {
		camps[i] = fleet.Campaign{
			Name:   fmt.Sprintf("r%02dc%02d", r, i),
			Seed:   seed<<16 + int64(r)<<6 + int64(i) + 1,
			Solver: solverFor(i),
			Config: protocol(campaignSamples),
		}
	}
	return camps
}

// runCampaigns measures the workload: whole fleet rounds back to back until
// the time is up, then the output checks.
func runCampaigns(ctx context.Context, sh shape, rc runConfig) (*outcome, error) {
	out := newOutcome()
	var env *campaignEnv
	for i := 0; i < rc.setups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = setupCampaigns(ctx, sh, rc.seed, rc.tr, filepath.Join(rc.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	defer env.close()
	if rc.tr != nil {
		rc.tr.reset() // drop the warm-up's server spans
	}

	perRound := 2 * sh.cells * sh.lanes
	var storedBefore int64
	if env.dist != nil {
		storedBefore = dirBytes(env.dist.dir)
	}
	rss, rt0 := startRSS(), readRuntime()
	start := time.Now()
	bounds := []time.Time{start}
	var rounds []round
	for r := 0; r == 0 || time.Since(start) < rc.seconds; r++ {
		rs, c0 := time.Now(), cpuTime()
		res, err := fleet.Run(ctx, roundCampaigns(rc.seed, r, perRound), env.options(rc.seed*7919+int64(r), true))
		if err != nil {
			rss.peak(nil)
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, round{start: rs, end: time.Now(), cpu: cpuTime() - c0, res: res})
		bounds = append(bounds, rounds[r].end)
	}
	rt1 := readRuntime()
	out.peakRSS = rss.peak(bounds)

	var makespan time.Duration
	for _, rd := range rounds {
		makespan += rd.res.Makespan
		out.rates = append(out.rates, safeDiv(float64(rd.res.Completed), rd.end.Sub(rd.start).Seconds()))
		out.cpuPer = append(out.cpuPer, safeDiv(rd.cpu.Seconds(), float64(rd.res.Completed)))
		for _, cr := range rd.res.Campaigns {
			out.attempted++
			if cr.Status == fleet.StatusCompleted {
				out.units++
			} else {
				out.failed++
			}
			if cr.PublishErr != nil {
				out.failed++
			}
		}
		out.problems = append(out.problems, checkRound(rd.res, perRound, sh)...)
	}
	if !sh.remote {
		out.extra["sim_campaigns_per_h"] = safeDiv(out.units, makespan.Hours())
	}
	out.layers["go.alloc_mb"] = safeDiv(mib(int64(rt1.alloc-rt0.alloc)), out.units)
	out.layers["go.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
	out.layers["go.gc_cpu_frac"] = safeDiv(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	if rc.tr != nil {
		if err := campaignLayers(rc.tr, rounds, sh, out, rc.tracePath); err != nil {
			return nil, err
		}
	}
	if env.dist != nil {
		if err := env.dist.finish(rounds, storedBefore, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkRound applies the campaign workloads' output checks to one round:
// every campaign completes with the full sample budget and nothing is lost;
// remote campaigns published every record; lanes never held a module twice.
func checkRound(res *fleet.Result, want int, sh shape) []string {
	var bad []string
	if len(res.Campaigns) != want || res.Completed != want {
		bad = append(bad, fmt.Sprintf("round completed %d of %d campaigns (failed %d, canceled %d)",
			res.Completed, want, res.Failed, res.Canceled))
	}
	var logs [][]wei.Event
	for _, cr := range res.Campaigns {
		switch {
		case cr.Status != fleet.StatusCompleted:
			bad = append(bad, fmt.Sprintf("campaign %s: %s: %v", cr.Campaign.Name, cr.Status, cr.Err))
		case cr.Result == nil || cr.Samples != campaignSamples || len(cr.Result.Samples) != campaignSamples:
			bad = append(bad, fmt.Sprintf("campaign %s: %d samples, want %d", cr.Campaign.Name, cr.Samples, campaignSamples))
		case sh.remote && (cr.PublishErr != nil || len(cr.RecordIDs) != recordsPerCamp):
			bad = append(bad, fmt.Sprintf("campaign %s: published %d records, want %d (%v)",
				cr.Campaign.Name, len(cr.RecordIDs), recordsPerCamp, cr.PublishErr))
		default:
			logs = append(logs, cr.Result.Events)
		}
	}
	if sh.remote && res.PublishErr != nil {
		bad = append(bad, fmt.Sprintf("fleet summary: %v", res.PublishErr))
	}
	if sh.lanes > 1 {
		if err := wei.VerifyModuleExclusion(logs...); err != nil {
			bad = append(bad, err.Error())
		}
	}
	return bad
}

// campaignLayers derives the per-layer metrics of a traced campaign phase.
func campaignLayers(tr *tracer, rounds []round, sh shape, out *outcome, tracePath string) error {
	atts := tr.attempts()
	byKey := make(map[string]*attempt, len(atts))
	for _, a := range atts {
		byKey[a.key] = a
	}
	n := float64(len(atts))
	var spans, flushes []float64
	var spanSum, selfSum, gate time.Duration
	steps := map[string]time.Duration{}
	nSteps := 0
	for _, a := range atts {
		spans = append(spans, ms(a.span()))
		flushes = append(flushes, ms(a.flush))
		spanSum += a.span()
		selfSum += a.self()
		gate += a.gate
		nSteps += a.nSteps
		for m, d := range a.steps {
			steps[m] += d
		}
	}
	solverOf := map[string]string{}
	for _, rd := range rounds {
		for _, cr := range rd.res.Campaigns {
			solverOf[cr.Campaign.Name] = cr.Campaign.Solver
		}
	}
	perSolver := map[string]float64{}
	for _, a := range atts {
		perSolver[solverOf[a.campaign]]++
	}
	for _, name := range []string{"genetic", "bayesian"} {
		for _, op := range []string{"propose", "observe"} {
			var total float64
			for _, s := range tr.spansNamed("solver." + op + "." + name) {
				total += ms(s.dur())
			}
			out.layers["solver."+op+"_ms."+name] = safeDiv(total, perSolver[name])
		}
	}
	out.stats["fleet.campaign_ms.p50"] = percentile(spans, 0.5)
	out.stats["fleet.flush_ms.p50"] = percentile(flushes, 0.5)
	out.layers["fleet.campaign_ms.p50"] = out.stats["fleet.campaign_ms.p50"].Value
	out.layers["fleet.flush_ms.p50"] = out.stats["fleet.flush_ms.p50"].Value
	out.layers["fleet.cell_idle_frac"] = cellIdle(rounds, byKey, tr)
	var stepSum, serverSum time.Duration
	for _, m := range modules {
		stepSum += steps[m]
		out.layers["wei.step_ms."+m] = safeDiv(ms(steps[m]), n)
		var server time.Duration
		var bytes int64
		for _, s := range tr.spansNamed("wei.server." + m) {
			server += s.dur()
			bytes += s.Bytes
		}
		serverSum += server
		out.layers["wei.server_ms."+m] = safeDiv(ms(server), n)
		out.layers["wei.wire_mb"] += safeDiv(mib(bytes), n)
	}
	out.layers["wei.steps"] = safeDiv(float64(nSteps), n)
	if sh.remote {
		out.layers["wei.transport_ms"] = safeDiv(ms(stepSum-serverSum), n)
	}
	out.layers["core.gate_wait_ms"] = safeDiv(ms(gate), n)
	out.layers["core.self_ms"] = safeDiv(ms(selfSum), n)
	out.layers["trace.coverage_frac"] = 1 - safeDiv(float64(selfSum), float64(spanSum))
	portalLayers(tr, out, n)
	return tr.write(tracePath, atts)
}

// cellIdle is the share of the cells' host time, over every round, that no
// campaign attempt was running on them.
func cellIdle(rounds []round, byKey map[string]*attempt, tr *tracer) float64 {
	var idle, total time.Duration
	for _, rd := range rounds {
		rs, re := tr.since(rd.start), tr.since(rd.end)
		perCell := map[int][][2]time.Duration{}
		for _, cr := range rd.res.Campaigns {
			if a := byKey[attemptKey(cr.Campaign.Name, cr.Attempts)]; a != nil {
				perCell[cr.Workcell] = append(perCell[cr.Workcell], [2]time.Duration{a.start, a.end})
			}
		}
		for _, w := range rd.res.Workcells {
			total += re - rs
			idle += re - rs - union(perCell[w.Index])
		}
	}
	return safeDiv(float64(idle), float64(total))
}

// union is the total length covered by a set of intervals.
func union(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end time.Duration = 0, -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// portalLayers derives the portal server's per-layer metrics from the
// middleware spans; per divides the ingest bytes (campaigns or archives).
func portalLayers(tr *tracer, out *outcome, per float64) {
	for _, op := range []string{"ingest", "events", "search", "summary", "get"} {
		spans := tr.spansNamed("portal." + op)
		d := durationsMs(spans)
		p50, p99 := percentile(d, 0.5), percentile(d, 0.99)
		out.stats["portal."+op+"_ms.p50"], out.stats["portal."+op+"_ms.p99"] = p50, p99
		out.layers["portal."+op+"_ms.p50"], out.layers["portal."+op+"_ms.p99"] = p50.Value, p99.Value
		switch op {
		case "ingest":
			var b int64
			for _, s := range spans {
				b += s.Bytes
			}
			out.layers["portal.ingest_mb"] = safeDiv(mib(b), per)
		case "events":
			out.layers["portal.events_batches"] = float64(len(spans))
		}
	}
}

// distEnv is the distributed workload's deployment: a durable portal with
// its event hub, two workcell servers admitted through a fleet registry,
// the event publisher the campaigns stream through, and one SSE watcher.
type distEnv struct {
	dir     string
	store   *portal.Store
	hub     *portal.Hub
	servers []*http.Server
	serving sync.WaitGroup
	client  *portal.Client
	reg     *fleet.Registry
	pub     *portal.EventPublisher
	watch   *watcher
	closed  bool
}

func openDist(ctx context.Context, seed int64, tr *tracer, dir string) (d *distEnv, err error) {
	d = &distEnv{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.store, err = portal.OpenStoreWith(dir, portal.Options{AutoCompactSegments: portalCompactSegments}); err != nil {
		return d, err
	}
	// A watch buffer of four publisher batches (cmd/portal -watch-buffer
	// 1024): with the default of one batch, a watcher still writing the
	// previous batch when the next arrives is evicted.
	if d.hub, err = portal.OpenHub(portal.HubOptions{Dir: filepath.Join(dir, "events"), SubscriberBuffer: watchBuffer}); err != nil {
		return d, err
	}
	var h http.Handler = portal.Serve(d.store, portal.WithHub(d.hub))
	if tr != nil {
		h = tr.middleware(h, portalPath)
	}
	url, err := serveLoopback(h, &d.servers, &d.serving)
	if err != nil {
		return d, err
	}
	d.client = portal.NewClient(url)
	d.reg = fleet.NewRegistry(fleet.RegistryOptions{Seed: seed})
	for i := 0; i < 2; i++ {
		// Each /reset provisions a fresh workcell, as cmd/workcell does.
		wopts := core.WorkcellOptions{Seed: seed*31 + int64(i) + 1}
		ws := wei.NewWorkcellServer(core.NewSimWorkcell(wopts).Registry, wei.ServerOptions{
			Reset: func() (*wei.Registry, error) { return core.NewSimWorkcell(wopts).Registry, nil },
			Caps:  wei.Capabilities{Lanes: 1, OT2s: 1, Camera: true},
		})
		var wh http.Handler = ws.Handler()
		if tr != nil {
			wh = tr.middleware(wh, workcellPath)
		}
		u, err := serveLoopback(wh, &d.servers, &d.serving)
		if err != nil {
			return d, err
		}
		if _, err := d.reg.AddRemote(fmt.Sprintf("cell%d", i), u, fleet.RemoteOptions{}); err != nil {
			return d, err
		}
	}
	d.pub = portal.NewEventPublisher(portal.NewClient(url), portal.PublisherOptions{})
	d.watch, err = startWatcher(ctx, portal.NewClient(url))
	return d, err
}

// serveLoopback starts an HTTP server for h on a loopback port, adding it
// to servers and its serving goroutine to wg.
func serveLoopback(h http.Handler, servers *[]*http.Server, wg *sync.WaitGroup) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	*servers = append(*servers, srv)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed once closed
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops everything the deployment started and waits for it.
func (d *distEnv) close() {
	if d.closed {
		return
	}
	d.closed = true
	if d.watch != nil {
		d.watch.stop()
	}
	if d.pub != nil {
		_ = d.pub.Close() // delivery failures were already counted by finish
	}
	if d.reg != nil {
		d.reg.Close()
	}
	for _, s := range d.servers {
		_ = s.Close()
	}
	d.serving.Wait()
	if d.hub != nil {
		_ = d.hub.Close()
	}
	if d.store != nil {
		_ = d.store.Close()
	}
}

// finish drains the event stream, checks it, shuts the deployment down,
// and checks that every completed campaign's records survive a restart.
func (d *distEnv) finish(rounds []round, storedBefore int64, out *outcome) error {
	perr := d.pub.Close()
	if perr != nil {
		out.problems = append(out.problems, perr.Error())
	}
	out.layers["portal.publisher_dropped"] = float64(d.pub.Dropped())
	out.attempted++
	if perr != nil || d.pub.Dropped() > 0 {
		out.failed++
	}
	var keys []string
	for _, rd := range rounds {
		for _, cr := range rd.res.Campaigns {
			if cr.Status == fleet.StatusCompleted {
				keys = append(keys, attemptKey(cr.Campaign.Name, cr.Attempts))
			}
		}
	}
	w := d.watch
	w.await(keys, 30*time.Second)
	w.stop()
	w.mu.Lock()
	out.problems = append(out.problems, w.verify(keys)...)
	out.stats["watch_lag_p50_ms"] = percentile(w.lags, 0.5)
	out.stats["watch_lag_p99_ms"] = percentile(w.lags, 0.99)
	out.layers["portal.watch_evictions"] = float64(w.evicted)
	out.attempted++
	out.failed += w.evicted
	if w.evicted > 0 {
		out.problems = append(out.problems, fmt.Sprintf("watcher evicted %d times", w.evicted))
	}
	if w.err != nil {
		out.failed++
		out.problems = append(out.problems, "watcher: "+w.err.Error())
	}
	w.mu.Unlock()
	out.extra["watch_lag_p50_ms"] = out.stats["watch_lag_p50_ms"].Value
	out.extra["watch_lag_p99_ms"] = out.stats["watch_lag_p99_ms"].Value
	out.extra["stored_mb_per_campaign"] = safeDiv(mib(dirBytes(d.dir)-storedBefore), out.units)

	d.close()
	st, err := restartPortal(d.dir, out)
	if err != nil {
		return err
	}
	defer st.Close()
	for _, rd := range rounds {
		for _, cr := range rd.res.Campaigns {
			if cr.Status == fleet.StatusCompleted {
				out.problems = append(out.problems, checkRecords(st, cr)...)
			}
		}
	}
	return nil
}

// checkRecords checks that a campaign's published records are all in the
// reopened store, each with its plate.png, and that the first one's frame
// loads from blob storage at its recorded size.
func checkRecords(st *portal.Store, cr fleet.CampaignResult) []string {
	recs := st.Search(portal.Query{Experiment: "fleet_" + cr.Campaign.Name, Run: cr.Attempts, HasRun: true})
	sizes := make(map[string]int, len(recs))
	for _, r := range recs {
		sizes[r.ID] = r.FileSizes()["plate.png"]
	}
	var bad []string
	for _, id := range cr.RecordIDs {
		if sizes[id] <= 0 {
			bad = append(bad, fmt.Sprintf("campaign %s: record %s or its plate.png missing after reopen", cr.Campaign.Name, id))
		}
	}
	if len(cr.RecordIDs) > 0 {
		id := cr.RecordIDs[0]
		rec, err := st.Get(id)
		if err != nil || len(rec.Files["plate.png"]) != sizes[id] {
			bad = append(bad, fmt.Sprintf("campaign %s: record %s frame unreadable after reopen: %v", cr.Campaign.Name, id, err))
		}
	}
	return bad
}

// restartReopens is how many times a data dir is reopened for restart_s.
const restartReopens = 3

// restartPortal reopens the portal's store and hub on dir a few times,
// recording the median times, and returns the last store opened (the
// caller closes it).
func restartPortal(dir string, out *outcome) (*portal.Store, error) {
	var storeS, hubS, totalS []float64
	var st *portal.Store
	for i := 0; i < restartReopens; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = portal.OpenStoreWith(dir, portal.Options{AutoCompactSegments: portalCompactSegments}); err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		t1 := time.Now()
		hub, err := portal.OpenHub(portal.HubOptions{Dir: filepath.Join(dir, "events")})
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("reopen hub: %w", err)
		}
		t2 := time.Now()
		if err := hub.Close(); err != nil {
			st.Close()
			return nil, err
		}
		storeS = append(storeS, t1.Sub(t0).Seconds())
		hubS = append(hubS, t2.Sub(t1).Seconds())
		totalS = append(totalS, t2.Sub(t0).Seconds())
	}
	out.extra["restart_s"] = median(totalS)
	out.layers["portal.restart_store_s"] = median(storeS)
	out.layers["portal.restart_hub_s"] = median(hubS)
	return st, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return nil // a file removed mid-walk (compaction) just isn't counted
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// watcher is the SSE subscriber of the distributed workload. It times each
// event from its publish stamp and checks that every campaign attempt's
// events arrive with contiguous src_seq and no duplicates.
type watcher struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	lags    []float64
	seqs    map[string]*seqState
	evicted int
	err     error
}

// seqState follows one attempt's stream: next is the src_seq expected next
// (-1 before campaign_start), ended marks campaign_end, bad the first fault.
type seqState struct {
	next  int
	ended bool
	bad   string
}

// startWatcher subscribes live. An evicted watcher reconnects from its
// cursor, as a dashboard would, so the stream it checks stays gap-free.
func startWatcher(ctx context.Context, c *portal.Client) (*watcher, error) {
	wctx, cancel := context.WithCancel(ctx)
	sub, err := c.Watch(wctx, portal.WatchOptions{})
	if err != nil {
		cancel()
		return nil, fmt.Errorf("watch: %w", err)
	}
	w := &watcher{cancel: cancel, done: make(chan struct{}), seqs: map[string]*seqState{}}
	go func() {
		defer close(w.done)
		for {
			ev, err := sub.Next()
			now := time.Now()
			w.mu.Lock()
			switch {
			case err == nil:
				w.observe(ev, now)
			case errors.Is(err, portal.ErrSlowSubscriber):
				w.evicted++
			case wctx.Err() == nil:
				w.err = err
			}
			w.mu.Unlock()
			if err == nil {
				continue
			}
			_ = sub.Close() // the stream has ended either way
			if !errors.Is(err, portal.ErrSlowSubscriber) {
				return
			}
			if sub, err = c.Watch(wctx, portal.WatchOptions{Cursor: sub.Cursor()}); err != nil {
				w.mu.Lock()
				if wctx.Err() == nil {
					w.err = err
				}
				w.mu.Unlock()
				return
			}
		}
	}()
	return w, nil
}

// observe folds one event in; w.mu is held.
func (w *watcher) observe(ev portal.StreamEvent, now time.Time) {
	w.lags = append(w.lags, ms(now.Sub(time.Unix(0, ev.PubNanos))))
	k := attemptKey(ev.Campaign, ev.Run)
	s := w.seqs[k]
	if s == nil {
		s = &seqState{next: -1}
		w.seqs[k] = s
	}
	if s.bad != "" {
		return
	}
	switch {
	case s.ended:
		s.bad = fmt.Sprintf("%s event after campaign_end", ev.Kind)
	case ev.Kind == "campaign_start" && (s.next != -1 || ev.SrcSeq != -1):
		s.bad = fmt.Sprintf("campaign_start src_seq %d at position %d", ev.SrcSeq, s.next)
	case ev.Kind == "campaign_start":
		s.next = 0
	case ev.SrcSeq != s.next:
		s.bad = fmt.Sprintf("%s src_seq %d, want %d", ev.Kind, ev.SrcSeq, s.next)
	case ev.Kind == "campaign_end":
		s.ended = true
	default:
		s.next++
	}
}

// await waits until every listed attempt's campaign_end has arrived, or
// the timeout passes.
func (w *watcher) await(keys []string, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		w.mu.Lock()
		all := true
		for _, k := range keys {
			if s := w.seqs[k]; s == nil || !s.ended {
				all = false
				break
			}
		}
		w.mu.Unlock()
		if all {
			return
		}
		select {
		case <-w.done:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// verify reports attempts whose stream was incomplete or out of order;
// w.mu is held.
func (w *watcher) verify(keys []string) []string {
	var bad []string
	for _, k := range keys {
		switch s := w.seqs[k]; {
		case s == nil:
			bad = append(bad, "watcher saw no events for "+k)
		case s.bad != "":
			bad = append(bad, "watcher: "+k+": "+s.bad)
		case !s.ended:
			bad = append(bad, "watcher: "+k+": no campaign_end")
		}
	}
	return bad
}

// stop ends the subscription and waits for the reader goroutine.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
}
