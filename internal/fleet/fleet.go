package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/labware"
	"colormatch/internal/metrics"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/baseline"
	"colormatch/internal/solver/bayes"
	"colormatch/internal/solver/ga"
	"colormatch/internal/wei"
)

// Campaign describes one independent color-matching campaign queued on the
// fleet. The zero value of every field has a sensible default: Run assigns
// IDs and names positionally, derives seeds from Options.Seed, and defaults
// the solver to the paper's genetic algorithm.
type Campaign struct {
	// ID is a positive campaign identifier (assigned 1..N when zero).
	ID int
	// Name labels the campaign in results and on the portal.
	Name string
	// Seed drives the campaign's solver stream (default Options.Seed + ID).
	Seed int64
	// Solver names the decision procedure: genetic|genetic-grid|bayesian|
	// random|grid (default genetic). Options.NewSolver overrides the lookup.
	Solver string
	// Config is the experiment configuration (batch size, sample budget,
	// target). Options.Batch overrides Config.BatchSize when set.
	Config core.Config
}

// SolverFactory builds a fresh solver for one campaign attempt. rng is
// derived from the campaign seed, so retried campaigns restart their solver
// deterministically.
type SolverFactory func(c Campaign, rng *sim.RNG) (solver.Solver, error)

// Options configure a fleet run.
type Options struct {
	// Workcells is the pool size M of the local pool: Run registers M
	// in-process simulated workcells as probe-less members of a private
	// registry (required, >= 1, unless Registry is set).
	Workcells int
	// LanesPerCell is K, the number of campaigns each local workcell runs
	// concurrently (default 1). With K > 1 every cell is built with K liquid
	// handlers; each campaign owns one lane's OT-2 and runs deck-resident
	// workflows, while the plate crane, arm and camera are shared under
	// per-module leases (wei.Reservations) — campaign A mixes while campaign
	// B photographs, and no instrument is ever held twice at the same
	// virtual time. Ignored with Registry: a member's cells run as many
	// lanes as they offer through Laned.
	LanesPerCell int
	// Batch, when positive, overrides every campaign's BatchSize: the k
	// ratios requested from the solver at once and fanned out across wells.
	Batch int
	// Seed is the base seed for workcell worlds and derived campaign seeds.
	Seed int64
	// PlateStock is the per-workcell plate supply (default: enough for every
	// campaign to run on one workcell, so scheduling never starves plates).
	PlateStock int
	// Faults, when non-zero, attaches a fault injector with this plan to
	// every workcell's engine.
	Faults sim.FaultPlan
	// Portal, when set, receives every campaign's records plus a fleet
	// summary record: pass portal.NewStore() to keep them in process
	// (cmd/fleet -publish), portal.NewClient(url) to publish to a remote
	// cmd/portal server (cmd/fleet -portal), or any other Ingestor. Records
	// are keyed by the campaign's experiment name with the scheduling
	// attempt as the run number, so a campaign rescheduled off a sick
	// workcell keeps its failed attempt's partial records separable from the
	// final attempt's. Each campaign's App delivers its records to Portal
	// as one keyed batch at campaign end rather than a round-trip per
	// iteration, and the summary follows as a one-record batch; both go
	// through portal.Buffer.Deliver, whose paced retries resend a batch
	// under its one key, so no retry after a lost response ingests twice.
	Portal portal.Ingestor
	// EventSink, when set, streams every campaign's engine events as they
	// happen — command_sent, step_end, gate_wait, … bracketed by
	// campaign_start/campaign_end lifecycle markers — instead of records
	// landing once at campaign end. Wire a portal.EventPublisher in front
	// of the hub's keyed write: portal.NewClient(url) for a remote portal
	// (cmd/fleet -stream) or the portal.Hub itself in process. Publishing
	// happens inside the campaign hot loop, so the sink must be
	// non-blocking; the caller owns its lifecycle (Close after Run for the
	// final, retried flush).
	EventSink portal.EventSink
	// NewSolver overrides the built-in solver lookup (e.g. for custom or
	// analytic solvers).
	NewSolver SolverFactory
	// Registry, when set, replaces the Workcells pool with the elastic
	// control plane: Run draws its workers from the registry's membership
	// events — cells admitted mid-run (programmatic Add/AddRemote or the
	// POST /join listener) start pulling queued campaigns, faulted cells are
	// probed and re-admitted when they answer again, deregistered cells
	// finish their current campaign and stop. The local-pool knobs
	// (Workcells, LanesPerCell, PlateStock, Faults) are ignored; Seed
	// still derives the campaigns' solver seeds. The caller owns the
	// registry: Run subscribes for its duration and does not close it.
	Registry *Registry
}

// Status classifies a campaign's final outcome.
type Status string

// Campaign outcomes.
const (
	StatusCompleted Status = "completed"
	StatusFailed    Status = "failed"
	StatusCanceled  Status = "canceled"
)

// CampaignResult is one campaign's outcome.
type CampaignResult struct {
	Campaign Campaign
	Status   Status
	// Workcell is the index of the cell that produced the final attempt, or
	// -1 when the campaign never ran (canceled before dispatch, or no
	// healthy workcell was left).
	Workcell int
	// Attempts counts scheduling attempts (>1 when rescheduled off a sick
	// workcell).
	Attempts int
	// Lane is the lane index the final attempt ran in (0 for unlaned cells
	// and campaigns that never ran).
	Lane int
	// Wall is the final attempt's duration in virtual workcell time,
	// including any time spent queued for leased modules.
	Wall time.Duration
	// QueueWait is the total time the final attempt's commands spent
	// waiting for module leases (zero without lane contention).
	QueueWait time.Duration
	Samples   int
	// Best is the best (lowest) score reached; 0 when no samples completed.
	Best float64
	Err  error
	// PublishErr reports a failure delivering the campaign's published
	// records to the portal (e.g. the remote portal was unreachable at the
	// end-of-campaign batch flush). It does not affect Status: the campaign
	// itself still ran to its recorded outcome.
	PublishErr error
	// RecordIDs are the destination-assigned IDs of this campaign's
	// published records, in publish order, when a portal destination is set
	// and the end-of-campaign flush succeeded; nil otherwise.
	RecordIDs []string
	// Result is the full experiment result of the final attempt (may be a
	// valid partial result even for failed campaigns).
	Result *core.Result
}

// WorkcellStats describes one workcell's share of the fleet run.
type WorkcellStats struct {
	Index int
	// Name is the cell's registry name ("cellN" for fixed pools).
	Name string
	// Admissions counts how many times the cell was admitted to the pool:
	// 1 for a cell that never faulted, +1 for every health-probe
	// re-admission after a fault.
	Admissions int
	// Lanes is the cell's concurrent-campaign capacity K.
	Lanes int
	// Campaigns counts campaign attempts executed here, including failures.
	Campaigns int
	// Busy is the virtual time the cell spent running campaigns: the span
	// from its first campaign's start to its last campaign's end on the
	// cell's clock. With one lane this equals the sum of campaign walls;
	// with K lanes overlapped campaigns are not double-counted.
	Busy time.Duration
	// Work is the sum of campaign walls executed here. Work/Busy > 1 is the
	// pipelining gain from running lanes concurrently.
	Work time.Duration
	// QueueWait is total time the cell's campaigns spent waiting for module
	// leases — the contention price of its pipelining gain.
	QueueWait time.Duration
	// Utilization is Busy relative to the fleet makespan (0..1).
	Utilization float64
	// Faults counts commands the cell's injector failed.
	Faults int
	// Retired reports the cell was out of the pool after a hard failure when
	// the run ended (a re-admitted cell ends with Retired false).
	Retired bool
}

// Result is the outcome of a fleet run.
type Result struct {
	Campaigns []CampaignResult
	Workcells []WorkcellStats
	// Lanes is the configured concurrent-campaign capacity per cell.
	Lanes     int
	Completed int
	Failed    int
	Canceled  int
	// Samples is the total number of colors mixed and measured.
	Samples int
	// Faults is the total number of injected command faults.
	Faults int
	// Readmissions counts cells rejoining the pool after a fault: the sum
	// over cells of admissions beyond the first. Zero on a churn-free run.
	Readmissions int
	// Makespan is the busiest workcell's virtual time — the fleet's
	// wall-clock on the experiment clock.
	Makespan time.Duration
	// SequentialWall is the sum of completed campaign durations net of
	// module queue waits: the virtual time one unshared workcell would have
	// needed to run the same campaigns back to back.
	SequentialWall time.Duration
	// QueueWait is the total time campaigns spent waiting for leased
	// modules across the fleet.
	QueueWait time.Duration
	// Speedup is SequentialWall / Makespan (1.0 for a single workcell).
	Speedup float64
	// Throughput is completed campaigns per virtual hour of makespan.
	Throughput float64
	// Metrics aggregates the completed campaigns' Table 1 summaries.
	Metrics metrics.Summary
	// PublishErr reports a failure delivering the fleet summary record to
	// the portal destination (per-campaign delivery failures are on each
	// CampaignResult.PublishErr). The run itself still succeeded.
	PublishErr error
}

// task is one schedulable campaign with its mutable attempt state.
type task struct {
	idx      int // position in the input slice / results
	c        Campaign
	attempts int
	// charged counts the attempts that ended in a failure attributable to
	// the campaign-or-cell pair (retryable faults exhausted). Attempts cut
	// short by a dying workcell are not charged, so a campaign keeps its
	// full maxAttempts budget of genuine tries.
	charged int
	// bounces counts uncharged requeues (cell deaths, prepare failures,
	// handbacks). With re-admission a flapping cell could otherwise bounce
	// one campaign forever; past maxBounces the campaign fails.
	bounces int
}

// unrun is t's outcome when no attempt of it ran to a result of its own.
func (t *task) unrun(status Status, err error) CampaignResult {
	return CampaignResult{Campaign: t.c, Status: status, Workcell: -1, Attempts: t.attempts, Err: err}
}

// maxAttempts bounds the scheduling attempts a campaign is charged for
// across workcells: one reschedule onto a different cell. The first charged
// hard failure retires the cell it happened on; the second shifts the blame
// to the campaign itself — a poisoned configuration fails everywhere — and
// that cell stays in the pool. Attempts cut short by a dying workcell
// (wei.ClassWorkcellDown) are rescheduled without being charged.
const maxAttempts = 2

// maxBounces is the safety valve on uncharged requeues per campaign: far
// above what any real churn produces, low enough that a cell dying every
// campaign cannot loop the scheduler forever.
const maxBounces = 64

// dispatcher is the work queue: the next free worker pulls the first queued
// campaign. It tracks outstanding (un-finalized) tasks so idle workers keep
// waiting while a running campaign might still be requeued. The worker set itself is elastic — membership is
// the registry's truth, and the run's monitor drains the queue when no cell
// is left to ever serve it (drain mode is sticky: requeues after the drain
// fail immediately instead of waiting for a pool that will not return).
type dispatcher struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []*task
	outstanding int
	draining    bool
	// done closes when every task is finalized — the run's completion
	// signal.
	done chan struct{}
}

func newDispatcher(tasks []*task) *dispatcher {
	d := &dispatcher{
		queue:       append([]*task(nil), tasks...),
		outstanding: len(tasks),
		done:        make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	if d.outstanding == 0 {
		close(d.done)
	}
	return d
}

// next blocks until a campaign is queued and returns it, or returns nil
// once the worker should exit: stopped (its cell retired or was
// decommissioned) or no task can ever arrive (all finalized).
func (d *dispatcher) next(stopped func() bool) *task {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if stopped() || d.outstanding == 0 {
			return nil
		}
		if len(d.queue) > 0 {
			t := d.queue[0]
			d.queue = d.queue[1:]
			return t
		}
		d.cond.Wait()
	}
}

// push requeues a task for another worker. It reports false in drain mode —
// no cell is left to pick the task up; the caller then records the task
// itself (its outstanding count is still held).
func (d *dispatcher) push(t *task) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return false
	}
	d.queue = append(d.queue, t)
	d.cond.Broadcast()
	return true
}

// finalize marks one task as done (in any status).
func (d *dispatcher) finalize() {
	d.mu.Lock()
	d.outstanding--
	if d.outstanding == 0 {
		close(d.done)
		d.cond.Broadcast()
	}
	d.mu.Unlock()
}

// drainQueued enters drain mode and pops every queued task for the caller
// to record; subsequent pushes fail so in-flight campaigns on their way
// back to the queue fail with their own error instead of waiting forever.
func (d *dispatcher) drainQueued() []*task {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.draining = true
	out := d.queue
	d.queue = nil
	d.cond.Broadcast()
	return out
}

// wake re-checks every blocked worker's exit condition (cell retirement,
// decommission).
func (d *dispatcher) wake() { d.cond.Broadcast() }

// defaultSolver is the built-in SolverFactory covering the repo's black-box
// decision procedures. The analytic oracle needs the forward mixing model;
// supply Options.NewSolver to use it (see experiments.NewSolver).
func defaultSolver(c Campaign, rng *sim.RNG) (solver.Solver, error) {
	name := c.Solver
	if name == "" {
		name = "genetic"
	}
	switch name {
	case "genetic", "ga":
		return ga.New(rng, ga.Options{RandomInit: true}), nil
	case "genetic-grid":
		return ga.New(rng, ga.Options{}), nil
	case "bayesian", "bayes":
		return bayes.New(rng, bayes.Options{}), nil
	case "random":
		return baseline.NewRandom(rng, 4), nil
	case "grid":
		return baseline.NewGrid(4, 6), nil
	default:
		return nil, fmt.Errorf("fleet: unknown solver %q (set Options.NewSolver for custom solvers)", name)
	}
}

// plateDemand estimates how many plates the campaigns consume in total, so
// one workcell could absorb the whole queue without starving. With K lanes a
// cell can have K partially-used plates in play at once, so the slack scales
// with the lane count.
func plateDemand(campaigns []Campaign, lanes int) int {
	plates := 0
	for _, c := range campaigns {
		n := c.Config.TotalSamples
		if n == 0 {
			n = 128
		}
		plates += (n+labware.PlateWells-1)/labware.PlateWells + 1
	}
	return plates + 1 + lanes
}

// slotInfo is one registry member's stable reporting slot: slot indexes are
// assigned in first-admission order (registration order for fixed pools) and
// survive re-admissions, so a cell's stats accumulate across its pool
// tenures. The mutex guards stats and clock between the member's workers
// (a re-admitted member's new worker can overlap the old one's teardown).
type slotInfo struct {
	mu    sync.Mutex
	stats WorkcellStats
	clock sim.Clock
}

// Run executes the campaigns across a pool of workcells and blocks until
// every campaign completed, failed, or was canceled. The pool is the
// members of opts.Registry when set, and otherwise opts.Workcells in-process
// simulated cells registered on a private registry. On context cancellation
// it drains — running campaigns stop at their next workflow-step boundary —
// and returns the partial Result together with the context's error.
//
// The pool is dynamic underneath in every mode: a worker is spawned per
// member admission. The Workcells pool's members have no health probe, so
// their faults are final (retire-for-good), while a caller registry's
// probed members are re-admitted when they answer again and resume pulling
// queued campaigns. Queued campaigns wait while any member might return
// (suspect/down/probation) and fail fast once none can (all gone, bounded by
// RegistryOptions.MaxDowntime).
//
// Failure policy, driven by wei.Classify on a campaign's step error:
// permanent errors (unknown module/action — a poisoned campaign config that
// would fail anywhere) fail the campaign in one scheduling attempt and the
// cell stays in the pool; workcell-down errors (unreachable or hung module
// server) fault the cell and requeue the campaign without burning one of
// its maxAttempts; exhausted retries on transient faults fault the cell
// under the sick-cell heuristic, shifting blame to the campaign once its
// attempt budget is spent across different cells.
func Run(ctx context.Context, campaigns []Campaign, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.LanesPerCell < 1 {
		opts.LanesPerCell = 1
	}
	if opts.NewSolver == nil {
		opts.NewSolver = defaultSolver
	}

	reg := opts.Registry
	if reg == nil {
		if opts.Workcells < 1 {
			return nil, fmt.Errorf("fleet: need at least one workcell, got %d", opts.Workcells)
		}
		stock := opts.PlateStock
		if stock == 0 {
			stock = plateDemand(campaigns, opts.LanesPerCell)
		}
		reg = NewRegistry(RegistryOptions{Seed: opts.Seed})
		defer reg.Close()
		for w := 0; w < opts.Workcells; w++ {
			if _, err := reg.Add(localSpec(opts, w, stock)); err != nil {
				return nil, err
			}
		}
	}

	res := &Result{
		Campaigns: make([]CampaignResult, len(campaigns)),
		Lanes:     opts.LanesPerCell,
	}
	tasks := make([]*task, len(campaigns))
	for i, c := range campaigns {
		if c.ID == 0 {
			c.ID = i + 1
		}
		if c.Name == "" {
			c.Name = fmt.Sprintf("c%02d", c.ID)
		}
		if c.Seed == 0 {
			c.Seed = opts.Seed + int64(c.ID)
		}
		tasks[i] = &task{idx: i, c: c}
		res.Campaigns[i] = CampaignResult{Campaign: c}
	}

	f := &fleetRun{
		ctx: ctx, opts: opts, reg: reg, d: newDispatcher(tasks),
		res: res, slotBy: make(map[string]*slotInfo),
	}
	sub := reg.subscribe()
	f.wg.Add(1)
	go f.monitor(sub)
	<-f.d.done
	reg.unsubscribe(sub)
	f.wg.Wait()

	res.Workcells = make([]WorkcellStats, len(f.slots))
	clocks := make([]sim.Clock, len(f.slots))
	for i, s := range f.slots {
		res.Workcells[i] = s.stats
		clocks[i] = s.clock
	}
	finish(res, clocks, opts.Portal)
	return res, ctx.Err()
}

// fleetRun is the state one Run shares between its monitor and the workers
// the monitor spawns, one per member admission.
type fleetRun struct {
	// fleetRun lives exactly as long as the Run call whose ctx it holds
	// (the http.Request pattern), and so do the cellRuns built from it.
	// Threading ctx through every worker and lane callback instead would
	// triple several signatures for no added cancellation fidelity.
	//lint:ignore ctx-discipline fleetRun is a run-scoped carrier; the ctx dies with the Run call it belongs to
	ctx  context.Context
	opts Options
	reg  *Registry
	d    *dispatcher

	resMu sync.Mutex // guards res.Campaigns writes across workers
	res   *Result
	wg    sync.WaitGroup
	// slots holds the members' reporting slots in first-admission order;
	// the monitor owns slots and slotBy until wg.Wait.
	slots  []*slotInfo
	slotBy map[string]*slotInfo
}

// done records t's final outcome and marks it finalized.
func (f *fleetRun) done(t *task, r CampaignResult) {
	f.resMu.Lock()
	f.res.Campaigns[t.idx] = r
	f.resMu.Unlock()
	f.d.finalize()
}

// stranded is the outcome of a task no cell will run: failed with cause, or
// canceled when the run's context is what stopped it.
func (f *fleetRun) stranded(t *task, cause error) CampaignResult {
	if err := f.ctx.Err(); err != nil {
		return t.unrun(StatusCanceled, err)
	}
	return t.unrun(StatusFailed, cause)
}

// drain enters drain mode and records every queued campaign as stranded.
func (f *fleetRun) drain(cause error) {
	for _, t := range f.d.drainQueued() {
		f.done(t, f.stranded(t, fmt.Errorf("fleet: no healthy workcell left: %w", cause)))
	}
}

// monitor turns membership events into workers and keeps the queue honest:
// spawn a worker per admission, and drain the queue when the pool is empty
// for good (or the run is canceled with no worker left to drain it). It returns once sub is
// unsubscribed and its pending events are consumed.
func (f *fleetRun) monitor(sub *eventSub) {
	defer f.wg.Done()
	evCh := make(chan memberEvent)
	go func() {
		defer close(evCh)
		for {
			ev, ok := sub.next()
			if !ok {
				return
			}
			evCh <- ev
		}
	}()
	lastCause := fmt.Errorf("fleet: pool is empty")
	var graceCh <-chan time.Time
	ctxDone := f.ctx.Done()
	// checkPool reacts to a membership loss: drain the queue once no cell
	// might come back — after RegistryOptions.JoinGrace when the run
	// tolerates an initially (or transiently) empty registry.
	checkPool := func() {
		if f.reg.Alive() > 0 {
			graceCh = nil
			return
		}
		if grace := f.reg.opts.JoinGrace; grace > 0 && f.ctx.Err() == nil {
			if graceCh == nil {
				// JoinGrace waits for real workcells to announce over real
				// HTTP; no campaign's virtual clock is running yet.
				//lint:ignore wallclock join grace is wall-clock by design: it bounds a real-time wait for members, not simulated work
				graceCh = time.After(grace)
			}
			return
		}
		f.drain(lastCause)
	}
	checkPool()
	for {
		select {
		case ev, ok := <-evCh:
			if !ok {
				return
			}
			switch ev.kind {
			case evAdmit:
				graceCh = nil
				f.admit(ev)
			case evLeave:
				if ev.err != nil {
					lastCause = ev.err
				}
				checkPool()
			}
		case <-graceCh:
			graceCh = nil
			if f.reg.Alive() == 0 {
				f.drain(lastCause)
			}
		case <-ctxDone:
			// Canceled with zero live workers nothing would drain the
			// queue; with workers alive they record their own tasks as
			// canceled and this drain just beats them to the queued ones.
			ctxDone = nil
			f.drain(f.ctx.Err())
		}
	}
}

// admit starts a worker for one member admission, in the member's slot.
func (f *fleetRun) admit(ev memberEvent) {
	slot := f.slotBy[ev.m.name]
	if slot == nil {
		slot = &slotInfo{stats: WorkcellStats{
			Index: len(f.slots), Name: ev.m.name, Lanes: 1,
		}}
		f.slotBy[ev.m.name] = slot
		f.slots = append(f.slots, slot)
	}
	slot.mu.Lock()
	slot.stats.Admissions++
	slot.stats.Retired = false
	slot.mu.Unlock()
	f.wg.Add(1)
	go f.serve(ev, slot)
}

// serve is one worker: the lifetime of one member admission. It opens the
// member's cell, drains the queue through the cell's lanes, and on a hard
// failure reports the fault back to the registry — which either starts
// probing toward re-admission (probed members) or removes the member for
// good (probe-less ones, such as the Workcells pool).
func (f *fleetRun) serve(ev memberEvent, slot *slotInfo) {
	defer f.wg.Done()
	name := ev.m.name
	var halted atomic.Bool
	f.reg.bindWorker(name, func() { halted.Store(true); f.d.wake() })
	defer f.reg.unbindWorker(name)

	cell, err := ev.m.open(f.ctx)
	if err != nil {
		// The cell did not make it into service (unreachable remote, failed
		// admission health check): fault it before it ran anything; the
		// remaining cells absorb the queue.
		slot.mu.Lock()
		slot.stats.Retired = true
		slot.mu.Unlock()
		f.reg.Fault(name, err)
		return
	}
	defer cell.Close()
	lanes := 1
	var laned Laned
	if lc, ok := cell.(Laned); ok && lc.Lanes() > 1 {
		laned, lanes = lc, lc.Lanes()
	}
	slot.mu.Lock()
	slot.clock = cell.Clock()
	slot.stats.Lanes = lanes
	slot.mu.Unlock()

	cr := &cellRun{
		fleetRun: f, cell: cell, name: name, w: slot.stats.Index, lanes: lanes,
		slot: slot, halted: &halted,
	}
	var lwg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		lwg.Add(1)
		go func(l int) {
			defer lwg.Done()
			var setup LaneSetup
			if laned != nil {
				setup = laned.Lane(l)
			}
			cr.lane(l, setup)
		}(l)
	}
	lwg.Wait()
	cr.mu.Lock()
	var span time.Duration
	if cr.spanSet {
		span = cr.spanEnd.Sub(cr.spanStart)
	}
	cr.mu.Unlock()
	slot.mu.Lock()
	slot.stats.Busy += span
	slot.stats.Faults += cell.Engine().Faults.Total()
	slot.mu.Unlock()
}

// cellRun is the state one cell's lanes share while draining the queue:
// the retirement flag (a cell retires once, whichever lane discovers the
// failure first) and the busy-span accounting that keeps overlapped lane
// time from being double-counted. One cellRun spans one admission; a
// re-admitted member gets a fresh cellRun folding into the same slot.
type cellRun struct {
	*fleetRun
	cell  Cell
	name  string // the member's registry name
	w     int
	lanes int
	slot  *slotInfo

	// halted is the decommission flag: the registry's Deregister/Close stops
	// this worker after its current campaign.
	halted *atomic.Bool

	retired   atomic.Bool
	mu        sync.Mutex
	spanSet   bool
	spanStart time.Time
	spanEnd   time.Time
}

// stopped is the lanes' exit condition: the cell hard-failed or was
// decommissioned.
func (c *cellRun) stopped() bool {
	return c.retired.Load() || c.halted.Load()
}

// retire marks the cell retired and reports its hard failure to the
// registry, where a probed member goes suspect and works toward
// re-admission and a probe-less one is gone for good. Only the first call
// does either: sibling lanes racing into their own hard failures requeue
// instead of failing the cell twice.
func (c *cellRun) retire(cause error) {
	if !c.retired.CompareAndSwap(false, true) {
		return
	}
	c.slot.mu.Lock()
	c.slot.stats.Retired = true
	c.slot.mu.Unlock()
	c.d.wake()
	c.reg.Fault(c.name, cause)
}

// note folds one finished campaign attempt into the cell's stats.
func (c *cellRun) note(start, end time.Time, cres CampaignResult) {
	c.slot.mu.Lock()
	c.slot.stats.Campaigns++
	c.slot.stats.Work += cres.Wall
	c.slot.stats.QueueWait += cres.QueueWait
	c.slot.mu.Unlock()
	c.mu.Lock()
	if !c.spanSet || start.Before(c.spanStart) {
		c.spanStart = start
		c.spanSet = true
	}
	if end.After(c.spanEnd) {
		c.spanEnd = end
	}
	c.mu.Unlock()
}

// lane drains the queue as lane l of the cell: pull the next campaign, run it under the lane's setup, apply the failure policy,
// repeat until the queue is exhausted, the cell retires, or the worker is
// decommissioned. With several lanes the loop registers itself as a
// virtual-clock worker only while a campaign runs, so an idle lane blocked
// on the queue never stalls the cell's clock.
func (c *cellRun) lane(l int, setup LaneSetup) {
	ctx := c.ctx
	var sc *sim.SimClock
	if c.lanes > 1 {
		sc, _ = c.cell.Clock().(*sim.SimClock)
	}
	// requeueOrRecord hands a task back to the queue for another cell (or a
	// re-admitted one), recording it here when the queue is draining — no
	// cell will ever pick it up — or when the task has bounced between dying
	// cells past any plausible churn.
	requeueOrRecord := func(t *task, cres CampaignResult) {
		t.bounces++
		if t.bounces > maxBounces || !c.d.push(t) {
			c.done(t, cres)
		}
	}
	for {
		t := c.d.next(c.stopped)
		if t == nil {
			return
		}
		if c.stopped() {
			// A sibling lane retired the cell (or it was decommissioned)
			// while this lane was popping: hand the untouched task back. If
			// the queue is already draining it is recorded like the tasks
			// stranded there — canceled when the fleet context is what
			// actually stopped it.
			requeueOrRecord(t, c.stranded(t, fmt.Errorf("fleet: no healthy workcell left")))
			return
		}
		if err := ctx.Err(); err != nil {
			c.done(t, t.unrun(StatusCanceled, err))
			continue
		}
		if err := c.cell.Prepare(ctx, t.c); err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				// The fleet was canceled mid-Prepare: that is not a cell
				// failure, so the cell stays and the campaign drains as
				// canceled like the rest of the queue.
				c.done(t, t.unrun(StatusCanceled, ctxErr))
				continue
			}
			// The cell cannot take the campaign (failed health gate or
			// session reset): fault it and requeue the campaign without
			// burning a scheduling attempt — the campaign never ran here, so
			// this failure says nothing about it.
			requeueOrRecord(t, t.unrun(StatusFailed, err))
			c.retire(err)
			return
		}
		t.attempts++
		start := c.cell.Clock().Now()
		if sc != nil {
			sc.AddWorker(1)
		}
		cres := runOne(ctx, t, c.w, l, c.cell, setup, c.opts)
		if sc != nil {
			sc.DoneWorker()
		}
		c.note(start, c.cell.Clock().Now(), cres)

		if cres.Err == nil || ctx.Err() != nil {
			c.done(t, cres)
			continue
		}
		class := wei.Classify(cres.Err)
		stepFailure := errors.Is(cres.Err, wei.ErrStepFailed)
		switch {
		case class == wei.ClassWorkcellDown:
			// The cell died under the campaign: fault it and reschedule
			// unconditionally — the failure is no evidence against the
			// campaign, so it is not charged against the maxAttempts budget
			// (t.charged). A probed cell may recover and re-admit; requeues
			// are bounded by maxBounces and the registry's MaxDowntime.
			requeueOrRecord(t, cres)
			c.retire(cres.Err)
		case stepFailure && class == wei.ClassPermanent:
			// Poisoned campaign (unknown module or action): it would fail on
			// every cell, so fail it here in one scheduling attempt and keep
			// the healthy cell in the pool.
			c.done(t, cres)
			continue
		case stepFailure:
			// Transient faults exhausted the step's retries: the sick-cell
			// heuristic. Until the campaign's attempt budget is spent the
			// cell takes the blame and retires; once the budget is exhausted
			// across different cells the blame shifts to the campaign and
			// the cell stays.
			t.charged++
			if t.charged >= maxAttempts {
				c.done(t, cres)
				continue
			}
			requeueOrRecord(t, cres)
			c.retire(cres.Err)
		default:
			// Application-level failure (solver error, vision pipeline): the
			// campaign failed on its own terms.
			c.done(t, cres)
			continue
		}
		return // this cell is retired (by this lane or a sibling)
	}
}

// runOne executes a single campaign attempt in lane `lane` of workcell w.
func runOne(ctx context.Context, t *task, w, lane int, cell Cell, setup LaneSetup, opts Options) CampaignResult {
	cr := CampaignResult{Campaign: t.c, Workcell: w, Attempts: t.attempts, Lane: lane}
	eng := cell.Engine()
	clock := cell.Clock()

	cfg := t.c.Config
	if cfg.Experiment == "" {
		cfg.Experiment = "fleet_" + t.c.Name
	}
	if opts.Batch > 0 {
		cfg.BatchSize = opts.Batch
	}
	// Lane retargeting: the campaign mixes on its lane's own liquid handler
	// and keeps its plate on that deck, visiting the shared camera only for
	// gated exposures.
	if setup.OT2 != "" {
		cfg.OT2 = setup.OT2
	}
	if setup.DeckMode {
		cfg.DeckMode = true
	}
	// Publish under the attempt number: the Experiment name already
	// identifies the campaign, and a rescheduled campaign may have left a
	// failed attempt's partial records in the shared store — per-attempt run
	// numbers keep the final attempt's records distinguishable.
	if cfg.RunNumber == 0 {
		cfg.RunNumber = t.attempts
	}
	sol, err := opts.NewSolver(t.c, sim.NewRNG(t.c.Seed).Derive("solver"))
	if err != nil {
		cr.Status = StatusFailed
		cr.Err = err
		return cr
	}

	// Fork the long-lived workcell engine with a per-campaign event log, so
	// each campaign's metrics stay separable. The shared destination is the
	// only cross-campaign publication state: the campaign's App delivers its
	// records there as one batch at campaign end — one round-trip per
	// campaign against a remote portal instead of one per iteration.
	campEng := eng.WithLog(wei.NewEventLog(clock))
	var stream *campaignStream
	if opts.EventSink != nil {
		// Live streaming: every event the campaign log records is forwarded
		// the moment it is stamped, and the attempt is bracketed with
		// lifecycle markers so a watcher can tell a resumed partial stream
		// from a complete one.
		stream = &campaignStream{
			sink:       opts.EventSink,
			experiment: cfg.Experiment,
			campaign:   t.c.Name,
			run:        cfg.RunNumber,
		}
		campEng.Log.SetSink(stream.engineEvent)
		stream.lifecycle(evCampaignStart, clock.Now(), -1, "")
	}
	start := clock.Now()
	result, err := core.RunCampaign(ctx, cfg, campEng, sol, setup.Gate, opts.Portal)
	cr.Wall = clock.Now().Sub(start)
	cr.Result = result
	if result != nil {
		cr.RecordIDs, cr.PublishErr = result.RecordIDs, result.PublishErr
		cr.Samples = len(result.Samples)
		cr.Best = result.Best.Score
		for _, u := range result.Metrics.Modules {
			cr.QueueWait += u.QueueWait
		}
	}
	switch {
	case err == nil:
		cr.Status = StatusCompleted
	case ctx.Err() != nil:
		cr.Status = StatusCanceled
		cr.Err = err
	default:
		cr.Status = StatusFailed
		cr.Err = err
	}
	if stream != nil {
		note := string(cr.Status)
		if cr.Err != nil {
			note += ": " + cr.Err.Error()
		}
		// SrcSeq carries the engine log's final length: the count a gap-free
		// subscriber must have seen for this attempt.
		stream.lifecycle(evCampaignEnd, clock.Now(), campEng.Log.Len(), note)
	}
	return cr
}

// finish derives the aggregate fleet metrics and publishes the summary
// record to dest, the Options.Portal destination, when set.
func finish(res *Result, clocks []sim.Clock, dest portal.Ingestor) {
	var summaries []metrics.Summary
	for _, cr := range res.Campaigns {
		switch cr.Status {
		case StatusCompleted:
			res.Completed++
			// Net of lease queue waits: the time an unshared workcell would
			// have needed, so lane contention cannot inflate the speedup's
			// sequential baseline.
			res.SequentialWall += cr.Wall - cr.QueueWait
			if cr.Result != nil {
				summaries = append(summaries, cr.Result.Metrics)
			}
		case StatusFailed:
			res.Failed++
		case StatusCanceled:
			res.Canceled++
		}
		res.Samples += cr.Samples
		res.QueueWait += cr.QueueWait
	}
	for i := range res.Workcells {
		if res.Workcells[i].Busy > res.Makespan {
			res.Makespan = res.Workcells[i].Busy
		}
		res.Faults += res.Workcells[i].Faults
		if res.Workcells[i].Admissions > 1 {
			res.Readmissions += res.Workcells[i].Admissions - 1
		}
	}
	for i := range res.Workcells {
		if res.Makespan > 0 {
			res.Workcells[i].Utilization = float64(res.Workcells[i].Busy) / float64(res.Makespan)
		}
	}
	if res.Makespan > 0 {
		res.Speedup = float64(res.SequentialWall) / float64(res.Makespan)
		res.Throughput = float64(res.Completed) / res.Makespan.Hours()
	}
	res.Metrics = metrics.Aggregate(summaries)

	if dest != nil {
		// Stamp the summary from the farthest-ahead cell clock. A worker
		// whose cell never opened leaves a nil clock behind.
		var clk sim.Clock
		for _, c := range clocks {
			if c != nil && (clk == nil || c.Now().After(clk.Now())) {
				clk = c
			}
		}
		if clk == nil {
			clk = sim.RealClock{}
		}
		// The record always names its experiment, so Add cannot reject it.
		buf := portal.NewBuffer(dest)
		_ = buf.Add(portal.Record{
			Experiment: "fleet",
			Time:       clk.Now(),
			Fields: map[string]any{
				"campaigns":          len(res.Campaigns),
				"workcells":          len(res.Workcells),
				"lanes_per_cell":     res.Lanes,
				"completed":          res.Completed,
				"failed":             res.Failed,
				"canceled":           res.Canceled,
				"samples":            res.Samples,
				"faults":             res.Faults,
				"readmissions":       res.Readmissions,
				"makespan_seconds":   res.Makespan.Seconds(),
				"queue_wait_seconds": res.QueueWait.Seconds(),
				"speedup":            res.Speedup,
			},
		})
		if _, err := buf.Deliver(context.Background()); err != nil {
			// Newly reachable with an external Portal destination: an
			// unreachable portal must not pass silently as a clean run.
			res.PublishErr = fmt.Errorf("fleet: publish fleet summary: %w", err)
		}
	}
}
