package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"colormatch/internal/sim"
	"colormatch/internal/wei"
)

// CellState is a registry member's position in the admission lifecycle:
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
// A member without a probe goes from up straight to gone on a fault. From
// any state, Deregister, Close, or a probe that fails more than MaxDowntime
// after the fault leads to gone. Only "gone" is terminal: a member whose
// probe starts answering again is re-admitted and its cell starts pulling
// queued campaigns — retirement is a state, not a death sentence.
type CellState string

// Member lifecycle states.
const (
	// StateUp: admitted; the scheduler runs a worker on the cell.
	StateUp CellState = "up"
	// StateSuspect: the cell just faulted (unreachable, failed open, sick)
	// or joined before it answered; the prober re-checks it, first about
	// ProbeInterval later and then at an interval that doubles with every
	// failed probe, up to 30s.
	StateSuspect CellState = "suspect"
	// StateDown: three consecutive probe failures, or a relapse on
	// probation; probing continues with the same backoff and jitter.
	StateDown CellState = "down"
	// StateProbation: the probe answered again; the member needs two
	// consecutive successes to be re-admitted, so one lucky packet does not
	// flap the pool.
	StateProbation CellState = "probation"
	// StateGone: permanently out — deregistered, registry closed, probing
	// gave up (MaxDowntime), or the member has no probe (static pools).
	StateGone CellState = "gone"
)

// CellOpener provisions the member's Cell for one admission. It is called
// again on every re-admission, so remote openers re-dial and re-health-gate.
type CellOpener func(ctx context.Context) (Cell, error)

// ProbeFunc checks whether an out-of-pool member is answering again,
// returning its currently advertised capabilities. For remote workcells this
// is a GET /healthz round-trip.
type ProbeFunc func(ctx context.Context) (wei.Capabilities, error)

// MemberSpec registers one cell with a Registry.
type MemberSpec struct {
	// Name identifies the member ("" generates cellN). Names are unique.
	Name string
	// URL is informational (shown by GET /members); AddRemote fills it.
	URL string
	// Open provisions the cell per admission (required).
	Open CellOpener
	// Probe re-checks a faulted member for re-admission. Nil means faults
	// are fatal: the member goes straight to gone, the static-pool policy.
	Probe ProbeFunc
	// Caps is the cell's advertised capability set, reported by Members and
	// GET /members; probed members refresh it from every successful probe.
	Caps wei.Capabilities
	// CapsKnown reports that Caps was advertised rather than left zero.
	CapsKnown bool
}

// MemberInfo is a read-only snapshot of one member.
type MemberInfo struct {
	Name       string           `json:"name"`
	URL        string           `json:"url,omitempty"`
	State      CellState        `json:"state"`
	Caps       wei.Capabilities `json:"caps"`
	CapsKnown  bool             `json:"caps_known"`
	Admissions int              `json:"admissions"`
	LastErr    string           `json:"last_error,omitempty"`
}

// The prober's fixed policy. maxProbeInterval caps its exponential backoff;
// suspectProbes consecutive probe failures demote suspect to down, and
// probationProbes consecutive successes re-admit. Each probe round-trip is
// bounded by wei.DefaultControlTimeout, the workcell client's own timeout.
const (
	maxProbeInterval = 30 * time.Second
	suspectProbes    = 3
	probationProbes  = 2
)

// RegistryOptions tune the health prober and join behavior.
type RegistryOptions struct {
	// ProbeInterval is the base interval between probes of a faulted cell
	// (default 1s). It doubles after every failed probe, up to 30s, and
	// drops back to the base after a success. Each probe is jittered around
	// the current interval so a fleet of probers never synchronizes against
	// a recovering server.
	ProbeInterval time.Duration
	// MaxDowntime is how long probing keeps faith in a member that never
	// answers before declaring it gone (default 10m; it bounds how long a
	// run with queued campaigns waits on a pool that might never return).
	MaxDowntime time.Duration
	// JoinGrace is how long a run keeps its queue alive with zero
	// non-gone members before draining it as failures (default 0: fail
	// fast). Set it when late joiners are expected, e.g. under a join
	// listener started before any workcell announced itself.
	JoinGrace time.Duration
	// Seed drives probe jitter (deterministic per registry).
	Seed int64
	// Logf, when set, receives control-plane lifecycle lines (joins,
	// demotions, re-admissions, give-ups).
	Logf func(format string, args ...any)
}

func (o *RegistryOptions) fill() {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.MaxDowntime <= 0 {
		o.MaxDowntime = 10 * time.Minute
	}
}

// member is one registered cell and its mutable control-plane state, guarded
// by the registry mutex.
type member struct {
	name  string
	url   string
	open  CellOpener
	probe ProbeFunc

	state      CellState
	caps       wei.Capabilities
	capsKnown  bool
	admissions int
	lastErr    error
	downSince  time.Time
	probing    bool
	poke       chan struct{} // nudges the prober to probe immediately
	halt       func()        // active worker's decommission hook
}

func (m *member) info() MemberInfo {
	mi := MemberInfo{
		Name: m.name, URL: m.url, State: m.state,
		Caps: m.caps, CapsKnown: m.capsKnown, Admissions: m.admissions,
	}
	if m.lastErr != nil {
		mi.LastErr = m.lastErr.Error()
	}
	return mi
}

// eventKind distinguishes membership events.
type eventKind int

const (
	evAdmit eventKind = iota // member entered up: the scheduler spawns a worker
	evLeave                  // member entered gone: permanently out of the pool
)

type memberEvent struct {
	kind eventKind
	m    *member
	err  error // the terminal error for evLeave, when known
}

// eventSub is an unbounded membership-event queue: the registry pushes
// without ever blocking (it holds its mutex while emitting), the subscriber
// pulls at its own pace.
type eventSub struct {
	mu     sync.Mutex
	cond   *sync.Cond
	events []memberEvent
	closed bool
}

func newEventSub() *eventSub {
	s := &eventSub{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func (s *eventSub) push(ev memberEvent) {
	s.mu.Lock()
	if !s.closed {
		s.events = append(s.events, ev)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// next blocks for the next event; ok=false after close once the queue is
// drained.
func (s *eventSub) next() (memberEvent, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.events) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.events) == 0 {
		return memberEvent{}, false
	}
	ev := s.events[0]
	s.events = s.events[1:]
	return ev, true
}

func (s *eventSub) close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Registry is the fleet's elastic control plane: it owns the live cell set,
// admits cells at runtime (Add / AddRemote / the POST /join handler), runs a
// health prober per faulted cell, and publishes membership events the
// scheduler turns into workers. Every pool reaches Run as registry members:
// Run registers Options.Workcells probe-less local members on a private
// registry, while a caller's registry can gain and lose cells mid-flight —
// a workcell that crashes is probed until it answers /healthz again, then
// re-admitted to pull queued campaigns.
//
// A Registry serves one fleet.Run at a time (members can be added and
// removed throughout); after the run it can be reused or Closed.
type Registry struct {
	opts RegistryOptions

	mu       sync.Mutex
	members  map[string]*member
	order    []*member
	subs     []*eventSub
	rng      *sim.RNG
	closed   bool
	done     chan struct{}
	autoName int
}

// NewRegistry returns an empty registry.
func NewRegistry(opts RegistryOptions) *Registry {
	opts.fill()
	return &Registry{
		opts:    opts,
		members: make(map[string]*member),
		rng:     sim.NewRNG(opts.Seed).Derive("fleet_prober"),
		done:    make(chan struct{}),
	}
}

func (r *Registry) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// Add registers a member and admits it immediately. It returns the member's
// (possibly generated) name.
func (r *Registry) Add(spec MemberSpec) (string, error) {
	return r.add(spec, nil)
}

// add registers spec as a new member. With a nil joinErr the member is
// admitted at once; otherwise it joins suspect, its prober working toward
// the first admission, and joinErr says why it is not answering yet.
func (r *Registry) add(spec MemberSpec, joinErr error) (string, error) {
	if spec.Open == nil {
		return "", fmt.Errorf("fleet: member %q has no opener", spec.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", fmt.Errorf("fleet: registry closed")
	}
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("cell%d", r.autoName)
		r.autoName++
	}
	if _, dup := r.members[name]; dup {
		return "", fmt.Errorf("fleet: member %q already registered", name)
	}
	m := &member{
		name: name, url: spec.URL, open: spec.Open, probe: spec.Probe,
		caps: spec.Caps, capsKnown: spec.CapsKnown,
		poke: make(chan struct{}, 1),
	}
	r.members[name] = m
	r.order = append(r.order, m)
	if joinErr == nil {
		r.admitLocked(m)
		return name, nil
	}
	m.state, m.lastErr, m.downSince = StateSuspect, joinErr, time.Now()
	r.logf("fleet: cell %s joined suspect (%s): %v", name, spec.URL, joinErr)
	r.startProberLocked(m)
	return name, nil
}

// admitLocked moves m to up and notifies subscribers. Caller holds r.mu.
func (r *Registry) admitLocked(m *member) {
	m.state = StateUp
	m.admissions++
	m.lastErr = nil
	r.logf("fleet: cell %s admitted (admission %d)", m.name, m.admissions)
	r.emitLocked(memberEvent{kind: evAdmit, m: m})
}

// removeLocked moves m to gone and notifies subscribers. Caller holds r.mu.
func (r *Registry) removeLocked(m *member, cause error) {
	if m.state == StateGone {
		return
	}
	m.state = StateGone
	m.lastErr = cause
	if halt := m.halt; halt != nil {
		m.halt = nil
		halt()
	}
	r.logf("fleet: cell %s gone: %v", m.name, cause)
	r.emitLocked(memberEvent{kind: evLeave, m: m, err: cause})
}

func (r *Registry) emitLocked(ev memberEvent) {
	for _, s := range r.subs {
		s.push(ev)
	}
}

// Fault reports that the named member's cell failed from the scheduler's
// side (open failed, transport died mid-campaign, retries exhausted). A
// probed member turns suspect and its prober starts working toward
// re-admission; a probe-less member is gone for good.
func (r *Registry) Fault(name string, cause error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok || m.state != StateUp {
		return
	}
	m.halt = nil
	if m.probe == nil || r.closed {
		r.removeLocked(m, cause)
		return
	}
	m.state = StateSuspect
	m.lastErr = cause
	m.downSince = time.Now()
	r.logf("fleet: cell %s suspect: %v", name, cause)
	r.startProberLocked(m)
}

// Deregister gracefully removes a member: its active worker (if any) stops
// pulling new campaigns and finishes the one in flight; the member never
// rejoins under this name unless re-added.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		r.removeLocked(m, fmt.Errorf("fleet: cell %s deregistered", name))
	}
}

// Alive counts members that are in the pool or may return to it (everything
// but gone). The scheduler keeps queued campaigns waiting while Alive > 0.
func (r *Registry) Alive() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, m := range r.order {
		if m.state != StateGone {
			n++
		}
	}
	return n
}

// Members snapshots every member (including gone ones), in registration
// order.
func (r *Registry) Members() []MemberInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberInfo, len(r.order))
	for i, m := range r.order {
		out[i] = m.info()
	}
	return out
}

// Member returns one member's snapshot.
func (r *Registry) Member(name string) (MemberInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok {
		return MemberInfo{}, false
	}
	return m.info(), true
}

// Close permanently removes every member and stops all probers. A run
// draining a closed registry fails its remaining queue.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	close(r.done)
	cause := fmt.Errorf("fleet: registry closed")
	for _, m := range r.order {
		r.removeLocked(m, cause)
	}
	for _, s := range r.subs {
		s.close()
	}
	r.subs = nil
}

// subscribe returns a membership-event stream primed with an admit event per
// currently-up member (in registration order), then live events.
func (r *Registry) subscribe() *eventSub {
	s := newEventSub()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		s.close()
		return s
	}
	for _, m := range r.order {
		if m.state == StateUp {
			s.push(memberEvent{kind: evAdmit, m: m})
		}
	}
	r.subs = append(r.subs, s)
	return s
}

// unsubscribe detaches s; pending events remain readable until drained.
func (r *Registry) unsubscribe(s *eventSub) {
	r.mu.Lock()
	for i, sub := range r.subs {
		if sub == s {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	s.close()
}

// bindWorker attaches the active worker's decommission hook so Deregister
// and Close can stop it after its current campaign.
func (r *Registry) bindWorker(name string, halt func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok {
		return
	}
	if m.state != StateUp {
		// The member left (deregister/close) while its worker was opening
		// the cell: decommission immediately.
		r.mu.Unlock()
		halt()
		r.mu.Lock()
		return
	}
	m.halt = halt
}

func (r *Registry) unbindWorker(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		m.halt = nil
	}
}

// startProberLocked launches the member's re-admission prober (one per
// member at a time). Caller holds r.mu.
func (r *Registry) startProberLocked(m *member) {
	if m.probing || m.probe == nil {
		return
	}
	m.probing = true
	go r.probeLoop(m)
}

// probeLoop drives one faulted member through suspect → down → probation →
// re-admission (or give-up): periodic health checks, each bounded by
// wei.DefaultControlTimeout, with exponential backoff and jitter. It exits
// when the member is re-admitted, gone, or the registry closes.
func (r *Registry) probeLoop(m *member) {
	defer func() {
		r.mu.Lock()
		m.probing = false
		r.mu.Unlock()
	}()
	interval := r.opts.ProbeInterval
	failures, successes := 0, 0
	for {
		select {
		case <-time.After(r.jitter(interval)):
		case <-m.poke:
		case <-r.done:
			return
		}
		r.mu.Lock()
		if m.state == StateGone || m.state == StateUp {
			r.mu.Unlock()
			return
		}
		probe, downSince := m.probe, m.downSince
		r.mu.Unlock()

		ctx, cancel := context.WithTimeout(context.Background(), wei.DefaultControlTimeout)
		caps, err := probe(ctx)
		cancel()

		r.mu.Lock()
		if m.state == StateGone || m.state == StateUp {
			r.mu.Unlock()
			return
		}
		if err == nil {
			successes++
			failures = 0
			m.caps, m.capsKnown = caps, true
			interval = r.opts.ProbeInterval // recovered: probe briskly again
			if successes >= probationProbes {
				r.admitLocked(m)
				r.mu.Unlock()
				return
			}
			if m.state != StateProbation {
				m.state = StateProbation
				r.logf("fleet: cell %s on probation (%d/%d probes ok)",
					m.name, successes, probationProbes)
			}
		} else {
			successes = 0
			failures++
			m.lastErr = err
			if m.state == StateProbation {
				m.state = StateDown // relapse mid-probation
			} else if m.state == StateSuspect && failures >= suspectProbes {
				m.state = StateDown
				r.logf("fleet: cell %s down after %d failed probes: %v", m.name, failures, err)
			}
			if interval *= 2; interval > maxProbeInterval {
				interval = maxProbeInterval
			}
			if time.Since(downSince) > r.opts.MaxDowntime {
				r.removeLocked(m, fmt.Errorf("fleet: cell %s unreachable for %v (last: %w)",
					m.name, r.opts.MaxDowntime, err))
				r.mu.Unlock()
				return
			}
		}
		r.mu.Unlock()
	}
}

// jitter spreads d uniformly over [d/2, 3d/2) so probers never synchronize.
func (r *Registry) jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(r.rng.Float64()*float64(d))
}

// AddRemote registers the cmd/workcell-style server at url as a probed
// member: faults demote it to suspect and the health prober re-admits it
// when /healthz answers again. The member is admitted immediately when the
// server answers an initial probe, and starts suspect (probing toward its
// first admission) when it does not — a fleet can therefore be pointed at
// cells that have not booted yet. Re-adding an existing member with the same
// URL is an announce: an out-of-pool member is poked to probe immediately.
func (r *Registry) AddRemote(name, url string, opts RemoteOptions) (string, error) {
	wcc := wei.NewWorkcellClient(url)
	spec := remoteSpec(url, opts)
	spec.Name = name
	spec.Probe = func(ctx context.Context) (wei.Capabilities, error) {
		h, err := wcc.Health(ctx)
		if err != nil {
			return wei.Capabilities{}, err
		}
		return h.Caps, nil
	}

	r.mu.Lock()
	if m, ok := r.members[name]; ok && name != "" {
		if m.url != url {
			r.mu.Unlock()
			return "", fmt.Errorf("fleet: member %q already registered at %s", name, m.url)
		}
		// Announce: a restarted workcell re-joining under its own name.
		if m.state != StateGone && m.state != StateUp {
			select {
			case m.poke <- struct{}{}:
			default:
			}
		}
		r.mu.Unlock()
		return name, nil
	}
	r.mu.Unlock()

	// One synchronous probe decides the initial state: a cell not
	// answering yet joins suspect, and the prober admits it when it comes
	// up.
	caps, perr := spec.Probe(context.Background())
	if perr == nil {
		spec.Caps, spec.CapsKnown = caps, true
	}
	return r.add(spec, perr)
}
