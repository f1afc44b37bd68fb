// Package fleet schedules many independent color-matching campaigns across
// an elastic pool of workcells — the scale/throughput layer the paper's
// benchmark framing calls for: "stress self-driving-lab infrastructure"
// with many campaigns, many workcells, and measured throughput.
//
// # Model
//
// A Campaign is one closed-loop color-matching experiment (a core.Config
// plus a solver choice and seed). Run
// executes the campaign queue against a pool of cells owned by a Registry —
// the fleet's control plane — and every pool reaches Run as registry
// members. By default Run registers Options.Workcells probe-less members on
// a private registry: M in-process simulated workcells, each with its own
// virtual clock, world, instrument modules and long-lived WEI engine. With
// Options.Registry the caller supplies the control plane instead (remote
// cmd/workcell-style servers via AddRemote or POST /join, or any
// MemberSpec), and the pool becomes elastic: cells join and leave while the
// run is in flight.
//
// Workers pull campaigns from a shared FIFO queue — work-stealing in the
// sense that the next free workcell takes the next queued campaign, so a
// slow campaign on one cell never blocks the rest of the fleet. Per campaign, the worker forks the workcell engine with a
// fresh event log (wei.Engine.WithLog), builds a fresh solver from the
// campaign's seed, and runs core.RunCampaign. Solver proposals route
// through the solver.BatchProposer seam: batch-aware solvers are asked for
// k ratios at once and the batch fans out across the plate's wells.
//
// # The elastic control plane
//
// A Registry owns the live cell set. Cells are admitted programmatically
// (Add, AddRemote) or over HTTP (JoinHandler serves POST /join and /leave
// and GET /members; cmd/workcell -announce is the client side, via
// Announce/Leave). The scheduler subscribes to membership events and turns
// them into workers: an admission spawns a worker on the cell, a
// deregistration decommissions the worker after its in-flight campaign.
//
// Every member walks the admission lifecycle
//
//	Add, AddRemote (answering) ──▶ up ◀───────── 2nd probe ok in a row ─────────┐
//	                               │                                            │
//	                             fault                                          │
//	                               ▼                                            │
//	AddRemote (not answering) ──▶ suspect ─────── probe ok ───────▶ probation ──┘
//	                               │                                  ▲   │
//	                  3rd failed probe in a row             probe ok  │   │  probe fails
//	                               ▼                                  │   │
//	                              down ◀──────────────────────────────┼───┘
//	                               └──────────────────────────────────┘
//
// When a cell faults (open failure, transport death mid-campaign, sick-cell
// retirement) the registry starts a health prober: /healthz checks, each
// bounded by wei.DefaultControlTimeout, first about
// RegistryOptions.ProbeInterval after the fault, then at an interval that
// doubles with every failed probe up to 30s, with jitter so a fleet of
// probers never synchronizes against a recovering server. Three failed
// probes in a row demote suspect to down; once a probe answers, the member
// needs two successes in a row to be re-admitted, so one lucky packet
// cannot flap the pool. A probe that fails more than MaxDowntime after the
// fault gives the member up as gone, as do Deregister and Close. Only
// "gone" is terminal — a retired remote cell whose server answers /healthz
// again is re-admitted and its worker resumes pulling queued campaigns.
// Members registered without a probe (the static local pool) keep the old
// policy: a fault is final.
//
// Cells advertise Capabilities (lanes, liquid-handler count, realtime vs
// simulated, camera) in their /healthz payload; probes refresh them on
// every success, and GET /members reports them. They do not steer
// placement: every cell pulls from the same queue.
//
// # Churn harness
//
// ChurnPool runs N in-process workcell HTTP servers that can be killed and
// restarted — on command (Kill/Restart), deterministically mid-campaign
// (KillAfterActions), or on a ParseChurn schedule — without losing their
// addresses, so the prober's re-admission path is exercised for real. It
// backs the churning-fleet benchmark (cmd/fleet -churn-cells) and the
// re-admission integration tests. For probabilistic misbehavior,
// wei.ChaosMiddleware (cmd/workcell -chaos) crashes, hangs or slow-answers
// a fraction of requests.
//
// # Lanes
//
// Options.LanesPerCell = K pipelines K campaigns concurrently through each
// local cell. The cell is provisioned with K liquid handlers; each lane's
// campaign owns one, keeps its plate on that deck (deck-resident workflow
// variants), and photographs under a shared camera gate, while the plate
// crane, arm and replenisher are leased per command through
// wei.Reservations — FIFO-fair per-module leases measured on the cell's
// virtual clock. One campaign mixes while another stages or photographs;
// no instrument is ever held by two steps at the same virtual time
// (wei.VerifyModuleExclusion asserts this from the event logs). Queue
// waits surface in CampaignResult.QueueWait and the per-module
// metrics.Summary.Modules breakdown; WorkcellStats.Busy becomes the
// first-start-to-last-end span on the cell clock so overlapped lanes are
// not double-counted, with WorkcellStats.Work/Busy as the pipelining gain.
//
// # Time and metrics
//
// Each workcell advances its own sim.SimClock, so fleet timing is measured
// in virtual workcell time — robot wall-clock, the quantity the paper
// benchmarks — independent of host CPU count. The fleet makespan is the
// busiest workcell's total virtual time; the sequential baseline is the sum
// of every campaign's virtual duration (what one workcell would have
// taken); Speedup is their ratio. Per-campaign Table 1 summaries aggregate
// through metrics.Aggregate, and fault counts come from each workcell's
// sim.Injector. A cell's WorkcellStats accumulate across re-admissions
// (Admissions counts them; Result.Readmissions totals the rejoins).
//
// # Failure and cancellation
//
// A campaign's final step error is classified with wei.Classify. A
// workcell-down error (unreachable or hung module server) retires the cell
// and requeues the campaign without spending one of its two scheduling
// attempts — the dead cell says nothing about the campaign. A permanent
// error (unknown module or action: a poisoned configuration that would fail
// anywhere) fails the campaign in a single scheduling attempt and the cell
// stays in the pool. Exhausted retries on transient faults are evidence of
// a sick workcell: the cell retires and the campaign requeues onto a
// healthy one; when its second attempt fails the same way on another cell
// the blame shifts to the campaign itself, so it is recorded as failed
// without retiring that cell. Retirement is a state, not a death
// sentence: a probed cell that recovers re-admits and keeps working. When
// every member is gone — or none is up and RegistryOptions.JoinGrace
// expires without a (re)join — the remaining queue drains as failures
// rather than deadlocking. Canceling the context stops new dispatch and
// aborts running campaigns at their next workflow-step boundary; Run then
// returns the partial Result alongside the context error.
package fleet
