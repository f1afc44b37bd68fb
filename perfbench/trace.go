package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"colormatch/internal/fleet"
	"colormatch/internal/portal"
	"colormatch/internal/sim"
	"colormatch/internal/solver"
	"colormatch/internal/solver/baseline"
	"colormatch/internal/solver/bayes"
	"colormatch/internal/solver/ga"
)

// tracer keeps host-time spans taken at the seams the benchmark owns: the
// fleet's EventSink and NewSolver hooks, and HTTP middleware around the
// servers it hosts. Everything stays in memory until the run ends. A nil
// *tracer is an untraced run.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	stamps map[string][]stamp // campaign attempt → engine events in arrival order
	spans  []span
}

// stamp is one streamed engine event and the host time it was received.
type stamp struct {
	at       time.Duration // since t0
	kind     string
	workflow string
	module   string
}

// span is one timed call at a layer boundary. Key names the campaign
// attempt ("name#run") or campaign ("name") it belongs to, when known.
type span struct {
	Name  string        `json:"name"`
	Key   string        `json:"key,omitempty"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Bytes int64         `json:"bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

func newTracer() *tracer {
	return &tracer{t0: time.Now(), stamps: make(map[string][]stamp)}
}

func (tr *tracer) since(t time.Time) time.Duration { return t.Sub(tr.t0) }

func (tr *tracer) add(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// reset drops everything recorded so far (set-up traffic).
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.stamps = make(map[string][]stamp)
	tr.spans = nil
	tr.mu.Unlock()
}

func attemptKey(campaign string, run int) string { return fmt.Sprintf("%s#%d", campaign, run) }

// traceSink stamps every streamed event on receipt and forwards the batch
// to next, the run's real sink (nil when the workload streams nowhere).
type traceSink struct {
	tr   *tracer
	next portal.EventSink
}

func (s traceSink) PublishEvents(evs []portal.StreamEvent) (string, error) {
	at := s.tr.since(time.Now())
	s.tr.mu.Lock()
	for _, ev := range evs {
		k := attemptKey(ev.Campaign, ev.Run)
		s.tr.stamps[k] = append(s.tr.stamps[k], stamp{at: at, kind: ev.Kind, workflow: ev.Workflow, module: ev.Module})
	}
	s.tr.mu.Unlock()
	if s.next == nil {
		return "", nil
	}
	return s.next.PublishEvents(evs)
}

// sink wraps the run's event sink (nil for none) with the tracer.
func (tr *tracer) sink(next portal.EventSink) portal.EventSink {
	return traceSink{tr: tr, next: next}
}

// buildSolver builds the solver fleet.Run's default factory builds for a
// campaign's Solver name.
func buildSolver(name string, rng *sim.RNG) (solver.Solver, error) {
	switch name {
	case "", "genetic", "ga":
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
		return nil, fmt.Errorf("unknown solver %q", name)
	}
}

// newSolver is a fleet.SolverFactory that builds the default solver and
// times its calls.
func (tr *tracer) newSolver(c fleet.Campaign, rng *sim.RNG) (solver.Solver, error) {
	s, err := buildSolver(c.Solver, rng)
	if err != nil {
		return nil, err
	}
	return tr.wrapSolver(c.Name, c.Solver, s), nil
}

// wrapSolver times s's calls under key. The wrapper is a
// solver.BatchProposer exactly when s is one, so solver.ProposeN takes the
// same path through it.
func (tr *tracer) wrapSolver(key, name string, s solver.Solver) solver.Solver {
	ts := &timedSolver{inner: s, tr: tr, key: key, name: name}
	if bp, ok := s.(solver.BatchProposer); ok {
		return &timedBatchSolver{timedSolver: ts, batch: bp}
	}
	return ts
}

type timedSolver struct {
	inner solver.Solver
	tr    *tracer
	key   string
	name  string
}

func (t *timedSolver) time(op string, start time.Time) {
	t.tr.add(span{Name: "solver." + op + "." + t.name, Key: t.key,
		Start: t.tr.since(start), End: t.tr.since(time.Now())})
}

func (t *timedSolver) Name() string { return t.inner.Name() }

func (t *timedSolver) Propose(n int) [][]float64 {
	defer t.time("propose", time.Now())
	return t.inner.Propose(n)
}

func (t *timedSolver) Observe(samples []solver.Sample) {
	defer t.time("observe", time.Now())
	t.inner.Observe(samples)
}

type timedBatchSolver struct {
	*timedSolver
	batch solver.BatchProposer
}

func (t *timedBatchSolver) ProposeBatch(n int) [][]float64 {
	defer t.time("propose", time.Now())
	return t.batch.ProposeBatch(n)
}

// middleware records a span for every request whose path classify names,
// with the request and response bytes. Other paths (the long-lived /watch
// stream among them) pass through untouched.
func (tr *tracer) middleware(h http.Handler, classify func(path string) string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := classify(r.URL.Path)
		if name == "" {
			h.ServeHTTP(w, r)
			return
		}
		body := &countingReader{r: r.Body}
		r.Body = body
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		tr.add(span{Name: name, Start: tr.since(start), End: tr.since(time.Now()), Bytes: body.n + cw.n})
	})
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// moduleFamily folds the lane liquid handlers (ot2_b, ...) into ot2.
func moduleFamily(m string) string {
	if strings.HasPrefix(m, "ot2") {
		return "ot2"
	}
	return m
}

// workcellPath names a workcell-server request span: module commands only.
func workcellPath(p string) string {
	rest, ok := strings.CutPrefix(p, "/modules/")
	if !ok {
		return ""
	}
	mod, endpoint, _ := strings.Cut(rest, "/")
	if endpoint != "action" {
		return ""
	}
	return "wei.server." + moduleFamily(mod)
}

// portalPath names a portal request span.
func portalPath(p string) string {
	switch {
	case p == "/ingest/batch":
		return "portal.ingest"
	case p == "/events":
		return "portal.events"
	case p == "/search":
		return "portal.search"
	case strings.HasPrefix(p, "/records/"):
		return "portal.get"
	case strings.HasPrefix(p, "/experiments/") && strings.HasSuffix(p, "/summary"):
		return "portal.summary"
	}
	return ""
}

// modules are the workcell's instrument families, in report order.
var modules = []string{"sciclops", "pf400", "ot2", "barty", "camera"}

// Workflows whose boundary brackets the camera-gate wait in deck mode: the
// lane blocks between finishing the mix and starting the photograph.
const (
	wfMixDeck   = "cp_wf_mix_deck"
	wfPhotoDeck = "cp_wf_photo_deck"
)

// attempt is one campaign attempt's host-time breakdown.
type attempt struct {
	key, campaign string
	start, end    time.Duration
	steps         map[string]time.Duration // per module family
	nSteps        int
	gate, flush   time.Duration
	solver        time.Duration
}

func (a *attempt) span() time.Duration { return a.end - a.start }

func (a *attempt) self() time.Duration {
	d := a.span() - a.gate - a.flush - a.solver
	for _, s := range a.steps {
		d -= s
	}
	return d
}

// attempts turns the stamped events into per-attempt spans. Within one
// attempt events arrive in order from one goroutine, so a command runs from
// its first command_sent to the step_end of the same module, the gate wait
// from the end of a deck mix to the start of the photograph, and the flush
// from the last engine event to campaign_end. Solver spans are matched by
// campaign name. Attempts without both lifecycle markers are skipped.
func (tr *tracer) attempts() []*attempt {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	solverBy := map[string]time.Duration{}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "solver.") {
			solverBy[s.Key] += s.dur()
		}
	}
	var out []*attempt
	for key, st := range tr.stamps {
		a := &attempt{key: key, campaign: key[:strings.LastIndexByte(key, '#')], steps: map[string]time.Duration{}, start: -1, end: -1}
		var (
			sentAt   time.Duration = -1
			mixEnd   time.Duration = -1
			lastEng  time.Duration = -1
			sentMod  string
			startSet bool
		)
		for _, e := range st {
			switch e.kind {
			case "campaign_start":
				a.start, startSet = e.at, true
				continue
			case "campaign_end":
				a.end = e.at
				if lastEng >= 0 {
					a.flush = e.at - lastEng
				}
				continue
			case "command_sent":
				if sentAt < 0 {
					sentAt, sentMod = e.at, moduleFamily(e.module)
				}
			case "step_end":
				if sentAt >= 0 {
					a.steps[sentMod] += e.at - sentAt
					a.nSteps++
					sentAt = -1
				}
			case "workflow_end":
				if e.workflow == wfMixDeck {
					mixEnd = e.at
				}
			case "workflow_start":
				if mixEnd >= 0 && e.workflow == wfPhotoDeck {
					a.gate += e.at - mixEnd
				}
				mixEnd = -1
			}
			lastEng = e.at
		}
		if !startSet || a.end < 0 {
			continue
		}
		a.solver = solverBy[a.campaign]
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// spansNamed returns the spans with the given name.
func (tr *tracer) spansNamed(name string) []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []span
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durationsMs is the span durations in milliseconds.
func durationsMs(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// write stores every span — the recorded ones plus each attempt's derived
// layer spans — as JSON lines at path.
func (tr *tracer) write(path string, atts []*attempt) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	for _, a := range atts {
		spans = append(spans, span{Name: "fleet.campaign", Key: a.key, Start: a.start, End: a.end})
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
