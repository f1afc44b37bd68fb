// Command fleet runs N independent color-matching campaigns concurrently
// across a pool of M simulated workcells and prints a JSON summary: campaign
// outcomes, per-workcell utilization, fleet makespan in virtual workcell
// time, and the speedup over a sequential single-workcell baseline.
//
//	fleet -campaigns 8 -workcells 4
//	fleet -campaigns 8 -workcells 2 -lanes 2
//	fleet -campaigns 8 -workcells 4 -solver bayesian -batch 8 -samples 64
//	fleet -campaigns 4 -workcells 2 -faults 0.05 -publish
//	fleet -campaigns 4 -workcells 2 -portal http://localhost:2100
//	fleet -campaigns 4 -remote http://a:2000,http://b:2000
//
// With -lanes K each local workcell runs K campaigns concurrently: the cell
// is built with K liquid handlers, each campaign owns one and keeps its
// plate on that deck, and the shared plate crane, arm and camera are leased
// per command (wei.Reservations) so the campaigns pipeline through the cell
// without ever holding one instrument twice at the same virtual time. The
// JSON output gains per-module busy/queue-wait breakdowns.
//
// With -portal each campaign's records and the fleet summary are published
// to the given cmd/portal-style server: every campaign's records are
// flushed in one POST /ingest/batch round-trip at campaign end, and the
// summary follows as a one-record batch. Every batch carries an
// idempotency key its retries reuse, so a retry after a lost response
// never ingests twice. Against a portal started with -data the campaign
// archive survives portal restarts. -publish does the same into an
// in-memory store that lives only as long as the run.
//
// With -stream (requires -portal) the fleet additionally publishes every
// step event live as it happens — command_sent, step_end, gate_wait,
// campaign lifecycle — batched through a background publisher into the
// portal's POST /events stream, where watchers (cmd/portalwatch, the index
// page's live table, GET /watch) follow it in real time:
//
//	fleet -campaigns 8 -workcells 4 -portal http://localhost:2100 -stream
//
// # Elastic pools
//
// With -remote the pool is the listed cmd/workcell-style HTTP servers — one
// workcell per URL — managed by the fleet registry: each campaign starts
// with a server-side session reset (fresh plate stock), admission is
// health-gated, a cell that dies mid-campaign is retired with its campaign
// requeued (uncharged), and a health prober keeps checking the corpse so a
// restarted cell is re-admitted and resumes taking campaigns.
//
//	fleet -campaigns 100 -remote http://a:2000 -probe-interval 500ms
//
// With -join-listen the fleet also serves its control plane, so workcells
// started with -announce join (and leave) the pool at runtime without being
// listed up front; -join-grace bounds how long an empty pool waits for its
// first member:
//
//	fleet -campaigns 100 -join-listen :2200 -join-grace 30s
//
// With -churn-cells N the pool is N in-process churnable workcell servers
// and -churn applies a kill/restart schedule against them; the summary
// gains churn_kills, the number of scheduled kills that fired:
//
//	fleet -campaigns 100 -churn-cells 4 -act-delay 2ms \
//	    -churn "0@1s+2s,2@3s+2s"
//
// All timing is measured on the workcells' clocks (virtual for the local
// pool — robot wall-clock, the quantity the paper benchmarks — and the wall
// clock for remote cells), so the reported speedup reflects fleet
// scheduling, not host CPU count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/core"
	"colormatch/internal/fleet"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
)

func main() {
	var (
		nCampaigns = flag.Int("campaigns", 8, "number of independent campaigns N")
		nWorkcells = flag.Int("workcells", 2, "size of the simulated workcell pool M")
		lanes      = flag.Int("lanes", 1, "concurrent campaigns per workcell K; cells get K liquid handlers and pipeline campaigns under module leases (local pool only)")
		solverName = flag.String("solver", "genetic", "solver: genetic|genetic-grid|bayesian|random|grid")
		batch      = flag.Int("batch", 4, "proposals requested from each solver at once (batch size k)")
		samples    = flag.Int("samples", 32, "sample budget per campaign")
		seed       = flag.Int64("seed", 1, "base seed for workcells and campaigns")
		targetHex  = flag.String("target", "787878", "target color as RRGGBB hex")
		faultRate  = flag.Float64("faults", 0, "per-command receive-fault probability on every workcell (local pool only)")
		publish    = flag.Bool("publish", false, "publish campaign records and a fleet summary to an in-memory portal store (one keyed batch per campaign, then the keyed summary)")
		portalURL  = flag.String("portal", "", "publish campaign records and the fleet summary to this cmd/portal base URL (one keyed batch per campaign, then the keyed summary, so retries never ingest twice; overrides -publish)")
		stream     = flag.Bool("stream", false, "also stream step events live to the -portal server (POST /events) as campaigns run")
		compact    = flag.Bool("compact", false, "emit compact JSON instead of indented")
		remote     = flag.String("remote", "", "comma-separated workcell server base URLs; one remote cell per URL (overrides -workcells; -seed still seeds campaign solvers)")
		joinListen = flag.String("join-listen", "", "serve the fleet control plane (POST /join, POST /leave, GET /members) on this address so workcells can join at runtime")
		joinGrace  = flag.Duration("join-grace", 15*time.Second, "how long a pool with no live cell waits for one to (re)join before failing queued campaigns (elastic pools)")
		probeEvery = flag.Duration("probe-interval", time.Second, "base health-probe interval for suspect/down cells (elastic pools)")
		maxDown    = flag.Duration("max-downtime", 10*time.Minute, "give up on a cell that has been down this long (elastic pools)")
		churnCells = flag.Int("churn-cells", 0, "run the campaigns against N in-process churnable workcell servers (the churning-fleet benchmark pool)")
		churnSpec  = flag.String("churn", "", `kill/restart schedule "cell@killAt+downtime,..." for the -churn-cells pool (omit +downtime to kill for good)`)
		actDelay   = flag.Duration("act-delay", 0, "real-time delay per action command on -churn-cells servers, so scheduled kills land mid-campaign")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	cfg := fleetConfig{
		lanes:      *lanes,
		faults:     *faultRate,
		remoteFlag: *remote,
		remote:     splitURLs(*remote),
		churnCells: *churnCells,
		churnSpec:  *churnSpec,
		joinListen: *joinListen,
		stream:     *stream,
		portalURL:  *portalURL,
	}
	if err := cfg.validate(); err != nil {
		fatal(err)
	}
	churnEvents, err := fleet.ParseChurn(*churnSpec)
	if err != nil {
		fatal(err)
	}
	target, err := color.ParseHex(*targetHex)
	if err != nil {
		fatal(err)
	}

	opts := fleet.Options{
		Workcells:    *nWorkcells,
		LanesPerCell: *lanes,
		Batch:        *batch,
		Seed:         *seed,
		Faults:       sim.FaultPlan{PReceive: *faultRate},
	}
	switch {
	case *portalURL != "":
		opts.Portal = portal.NewClient(*portalURL)
	case *publish:
		opts.Portal = portal.NewStore()
	}
	var pub *portal.EventPublisher
	if *stream {
		pub = portal.NewEventPublisher(portal.NewClient(*portalURL), portal.PublisherOptions{})
		opts.EventSink = pub
	}

	// Elastic pools run off a registry: remote URLs and churn cells are
	// health-probed members, and -join-listen admits announcers at runtime.
	var pool *fleet.ChurnPool
	if cfg.elastic() {
		reg := fleet.NewRegistry(fleet.RegistryOptions{
			ProbeInterval: *probeEvery,
			MaxDowntime:   *maxDown,
			JoinGrace:     *joinGrace,
			Seed:          *seed,
		})
		defer reg.Close()
		ropts := fleet.RemoteOptions{}
		if cfg.churnCells > 0 {
			pool, err = fleet.NewChurnPool(fleet.ChurnPoolOptions{
				Cells:    cfg.churnCells,
				Seed:     *seed,
				ActDelay: *actDelay,
			})
			if err != nil {
				fatal(err)
			}
			defer pool.Close()
			if err := pool.Register(reg, ropts); err != nil {
				fatal(err)
			}
		}
		for _, u := range cfg.remote {
			if _, err := reg.AddRemote("", u, ropts); err != nil {
				fatal(err)
			}
		}
		if cfg.joinListen != "" {
			srv := &http.Server{
				Addr:              cfg.joinListen,
				Handler:           reg.JoinHandler(ropts),
				ReadHeaderTimeout: 5 * time.Second,
			}
			go func() {
				if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
					fmt.Fprintln(os.Stderr, "fleet: control listener:", err)
				}
			}()
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "fleet: control plane on %s\n", cfg.joinListen)
		}
		opts.Registry = reg
	}

	campaigns := buildCampaigns(*nCampaigns, *solverName, target, *samples)
	if pool != nil && len(churnEvents) > 0 {
		stop := pool.Schedule(churnEvents)
		defer stop()
	}
	res, err := fleet.Run(context.Background(), campaigns, opts)
	if pub != nil {
		// Final drain before the summary (and before a fatal exit): the
		// run's event tail should reach the portal even when the run failed.
		if cerr := pub.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "fleet: event stream:", cerr)
		}
		if n := pub.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "fleet: event stream dropped %d event(s)\n", n)
		}
	}
	if err != nil {
		fatal(err)
	}

	s := summarize(res)
	// The kills that actually fired: a run that ends before the schedule
	// does never sees its later events.
	for i := 0; i < cfg.churnCells; i++ {
		s.ChurnKills += int(pool.Deaths(i))
	}
	enc := json.NewEncoder(os.Stdout)
	if !*compact {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(s); err != nil {
		fatal(err)
	}
	if res.Failed > 0 {
		stopProfiles()
		os.Exit(1)
	}
}

// startProfiles enables CPU and/or heap profiling per the -cpuprofile and
// -memprofile flags. The returned stop function is idempotent, so it can run
// both deferred and explicitly before os.Exit paths (which skip defers).
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	stopped := false
	return func() {
		if stopped {
			return
		}
		stopped = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fleet: cpuprofile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleet: memprofile:", err)
				return
			}
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fleet: memprofile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fleet: memprofile:", err)
			}
		}
	}, nil
}

// fleetConfig is the subset of flag state with cross-flag constraints,
// factored out so the fail-fast rules are testable.
type fleetConfig struct {
	lanes      int
	faults     float64
	remoteFlag string   // raw -remote value
	remote     []string // parsed URLs
	churnCells int
	churnSpec  string
	joinListen string
	stream     bool
	portalURL  string
}

// elastic reports whether the run is registry-managed (remote, churn, or
// runtime-join pools) rather than a fixed local simulated pool.
func (c fleetConfig) elastic() bool {
	return len(c.remote) > 0 || c.churnCells > 0 || c.joinListen != ""
}

// validate enforces the cross-flag rules and fails fast with a clear error
// instead of silently ignoring a flag that has no effect.
func (c fleetConfig) validate() error {
	if c.lanes < 1 {
		return fmt.Errorf("-lanes must be >= 1, got %d", c.lanes)
	}
	if c.remoteFlag != "" && len(c.remote) == 0 {
		return fmt.Errorf("-remote given but no URLs parsed from %q", c.remoteFlag)
	}
	if c.churnCells < 0 {
		return fmt.Errorf("-churn-cells must be >= 0, got %d", c.churnCells)
	}
	if c.churnCells > 0 && len(c.remote) > 0 {
		return fmt.Errorf("-churn-cells and -remote both name a pool; choose one")
	}
	if c.churnSpec != "" && c.churnCells == 0 {
		return fmt.Errorf("-churn needs a -churn-cells pool to act on")
	}
	if c.stream && c.portalURL == "" {
		return fmt.Errorf("-stream publishes to the -portal server; set -portal")
	}
	if c.elastic() {
		// Fault injection provisions the local pool's engines; an elastic
		// pool's faults are whatever its servers experience for real.
		if c.faults != 0 {
			return fmt.Errorf("-faults is a local-pool option and has no effect with %s", c.elasticFlag())
		}
		// Lanes provision extra liquid handlers on local simulated cells; a
		// remote cell's hardware is whatever its server has.
		if c.lanes > 1 {
			return fmt.Errorf("-lanes is a local-pool option and has no effect with %s", c.elasticFlag())
		}
	}
	return nil
}

// elasticFlag names whichever flag made the run elastic, for error text.
func (c fleetConfig) elasticFlag() string {
	switch {
	case len(c.remote) > 0:
		return "-remote"
	case c.churnCells > 0:
		return "-churn-cells"
	default:
		return "-join-listen"
	}
}

// splitURLs parses the -remote flag: comma-separated base URLs, empty
// entries dropped.
func splitURLs(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// buildCampaigns prepares n campaigns sharing a solver, target and budget.
func buildCampaigns(n int, solverName string, target color.RGB8, samples int) []fleet.Campaign {
	campaigns := make([]fleet.Campaign, n)
	for i := range campaigns {
		campaigns[i] = fleet.Campaign{
			Solver: solverName,
			Config: core.Config{Target: target, TotalSamples: samples},
		}
	}
	return campaigns
}

// summary is the CLI's JSON output shape; durations are reported in seconds
// of virtual workcell time.
type summary struct {
	Campaigns         int                      `json:"campaigns"`
	Workcells         int                      `json:"workcells"`
	LanesPerCell      int                      `json:"lanes_per_cell"`
	Completed         int                      `json:"completed"`
	Failed            int                      `json:"failed"`
	Canceled          int                      `json:"canceled"`
	Samples           int                      `json:"samples"`
	Faults            int                      `json:"faults"`
	Readmissions      int                      `json:"readmissions"`
	ChurnKills        int                      `json:"churn_kills,omitempty"`
	MakespanSeconds   float64                  `json:"makespan_seconds"`
	SequentialSeconds float64                  `json:"sequential_seconds"`
	Speedup           float64                  `json:"speedup_vs_sequential"`
	CampaignsPerHour  float64                  `json:"campaigns_per_hour"`
	QueueWaitSeconds  float64                  `json:"queue_wait_seconds"`
	PublishError      string                   `json:"summary_publish_error,omitempty"`
	PerModule         map[string]moduleSummary `json:"per_module,omitempty"`
	PerWorkcell       []workcellSummary        `json:"per_workcell"`
	PerCampaign       []campaignSummary        `json:"per_campaign"`
}

type moduleSummary struct {
	Commands         int     `json:"commands"`
	BusySeconds      float64 `json:"busy_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	Utilization      float64 `json:"utilization"`
}

type workcellSummary struct {
	Index            int     `json:"index"`
	Name             string  `json:"name,omitempty"`
	Lanes            int     `json:"lanes"`
	Campaigns        int     `json:"campaigns"`
	BusySeconds      float64 `json:"busy_seconds"`
	WorkSeconds      float64 `json:"work_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	Utilization      float64 `json:"utilization"`
	Faults           int     `json:"faults"`
	Admissions       int     `json:"admissions,omitempty"`
	Retired          bool    `json:"retired,omitempty"`
}

type campaignSummary struct {
	Name             string  `json:"name"`
	Status           string  `json:"status"`
	Workcell         int     `json:"workcell"`
	Lane             int     `json:"lane"`
	Attempts         int     `json:"attempts"`
	WallSeconds      float64 `json:"wall_seconds"`
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	Samples          int     `json:"samples"`
	Best             float64 `json:"best_score"`
	Error            string  `json:"error,omitempty"`
	PublishError     string  `json:"publish_error,omitempty"`
}

// summarize converts a fleet result into the CLI output shape.
func summarize(res *fleet.Result) summary {
	s := summary{
		Campaigns:         len(res.Campaigns),
		Workcells:         len(res.Workcells),
		LanesPerCell:      res.Lanes,
		Completed:         res.Completed,
		Failed:            res.Failed,
		Canceled:          res.Canceled,
		Samples:           res.Samples,
		Faults:            res.Faults,
		Readmissions:      res.Readmissions,
		MakespanSeconds:   res.Makespan.Seconds(),
		SequentialSeconds: res.SequentialWall.Seconds(),
		Speedup:           res.Speedup,
		CampaignsPerHour:  res.Throughput,
		QueueWaitSeconds:  res.QueueWait.Seconds(),
	}
	if res.PublishErr != nil {
		s.PublishError = res.PublishErr.Error()
	}
	for name, u := range res.Metrics.Modules {
		if s.PerModule == nil {
			s.PerModule = map[string]moduleSummary{}
		}
		s.PerModule[name] = moduleSummary{
			Commands:         u.Commands,
			BusySeconds:      u.Busy.Seconds(),
			QueueWaitSeconds: u.QueueWait.Seconds(),
			Utilization:      u.Utilization,
		}
	}
	for _, wc := range res.Workcells {
		s.PerWorkcell = append(s.PerWorkcell, workcellSummary{
			Index:            wc.Index,
			Name:             wc.Name,
			Lanes:            wc.Lanes,
			Campaigns:        wc.Campaigns,
			BusySeconds:      wc.Busy.Seconds(),
			WorkSeconds:      wc.Work.Seconds(),
			QueueWaitSeconds: wc.QueueWait.Seconds(),
			Utilization:      wc.Utilization,
			Faults:           wc.Faults,
			Admissions:       wc.Admissions,
			Retired:          wc.Retired,
		})
	}
	for _, cr := range res.Campaigns {
		cs := campaignSummary{
			Name:             cr.Campaign.Name,
			Status:           string(cr.Status),
			Workcell:         cr.Workcell,
			Lane:             cr.Lane,
			Attempts:         cr.Attempts,
			WallSeconds:      cr.Wall.Seconds(),
			QueueWaitSeconds: cr.QueueWait.Seconds(),
			Samples:          cr.Samples,
			Best:             cr.Best,
		}
		if cr.Err != nil {
			cs.Error = cr.Err.Error()
		}
		if cr.PublishErr != nil {
			cs.PublishError = cr.PublishErr.Error()
		}
		s.PerCampaign = append(s.PerCampaign, cs)
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleet:", err)
	os.Exit(1)
}
