package wei

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"colormatch/internal/form"
	"colormatch/internal/sim"
)

// HealthInfo is the /healthz response: liveness plus enough session state
// for a fleet scheduler to gate admission.
type HealthInfo struct {
	OK      bool     `json:"ok"`
	Modules []string `json:"modules"`
	// Session is the current session number (1-based; bumped by /reset).
	Session int `json:"session"`
	// Campaign labels the session, when the resetter provided one.
	Campaign string `json:"campaign,omitempty"`
	// Commands counts module commands received this session.
	Commands int `json:"commands"`
	// Caps advertises what the cell can do (lane count, liquid handlers,
	// realtime vs simulated, camera present) so a fleet control plane can
	// place campaigns capability-aware. Zero when the server predates the
	// field or chose not to advertise.
	Caps Capabilities `json:"caps"`
}

// ResetInfo is the /reset response.
type ResetInfo struct {
	// Session is the new session's number.
	Session int `json:"session"`
	// Modules is the module set now served (fresh instances after a reset
	// with a provisioning hook).
	Modules []string `json:"modules"`
}

// SessionInfo is the /session response: the current session and its
// command-level event log, the server-side counterpart of the engine's
// per-campaign event log.
type SessionInfo struct {
	Session  int       `json:"session"`
	Campaign string    `json:"campaign,omitempty"`
	Started  time.Time `json:"started"`
	Commands int       `json:"commands"`
	Events   []Event   `json:"events"`
}

type resetRequest struct {
	Campaign string `json:"campaign,omitempty"`
}

// ServerOptions configure a WorkcellServer beyond plain module dispatch.
type ServerOptions struct {
	// Reset, when non-nil, is called by POST /reset and must return a
	// freshly provisioned module set (full plate stock, filled reservoirs,
	// cleared device state) to swap in for the next session. When nil,
	// /reset still starts a new session — rolling the command log and
	// counters — but keeps serving the same modules.
	Reset func() (*Registry, error)
	// Clock stamps the per-session command log (default: wall clock, the
	// time base an operator reading server logs expects).
	Clock sim.Clock
	// Caps is advertised on /healthz for capability-aware placement.
	Caps Capabilities
}

// WorkcellServer exposes a workcell's modules over HTTP together with the
// whole-cell control plane: /healthz for health-gated admission, /reset for
// per-campaign session boundaries, /session for the server-side command log.
// It plays the role of the device-computer module server in the physical
// deployment.
type WorkcellServer struct {
	opts ServerOptions

	mu       sync.RWMutex
	reg      *Registry
	session  int
	campaign string
	started  time.Time
	commands int
	log      *EventLog
}

// NewWorkcellServer returns a server for the given module set.
func NewWorkcellServer(reg *Registry, opts ServerOptions) *WorkcellServer {
	if opts.Clock == nil {
		opts.Clock = sim.RealClock{}
	}
	return &WorkcellServer{
		opts:    opts,
		reg:     reg,
		session: 1,
		started: opts.Clock.Now(),
		log:     NewEventLog(opts.Clock),
	}
}

// Registry returns the currently served module set.
func (s *WorkcellServer) Registry() *Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reg
}

// Session returns the current session number.
func (s *WorkcellServer) Session() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.session
}

// reset starts a new session, swapping in freshly provisioned modules when a
// Reset hook is configured.
func (s *WorkcellServer) reset(campaign string) (ResetInfo, error) {
	var fresh *Registry
	if s.opts.Reset != nil {
		var err error
		fresh, err = s.opts.Reset()
		if err != nil {
			return ResetInfo{}, fmt.Errorf("wei: reset workcell: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if fresh != nil {
		s.reg = fresh
	}
	s.session++
	s.campaign = campaign
	s.started = s.opts.Clock.Now()
	s.commands = 0
	s.log = NewEventLog(s.opts.Clock)
	return ResetInfo{Session: s.session, Modules: s.reg.Names()}, nil
}

// Handler returns the server's http.Handler.
func (s *WorkcellServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/modules/", s.handleModules)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/reset", s.handleReset)
	mux.HandleFunc("/session", s.handleSession)
	return mux
}

func (s *WorkcellServer) handleModules(w http.ResponseWriter, req *http.Request) {
	rest := strings.TrimPrefix(req.URL.Path, "/modules/")
	parts := strings.SplitN(rest, "/", 2)
	if len(parts) != 2 {
		http.Error(w, "bad module path", http.StatusNotFound)
		return
	}
	name, endpoint := parts[0], parts[1]
	m, ok := s.Registry().Get(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown module %q", name), http.StatusNotFound)
		return
	}
	switch endpoint {
	case "action":
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var ar actRequest
		if err := json.NewDecoder(req.Body).Decode(&ar); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		s.mu.Lock()
		s.commands++
		log := s.log
		s.mu.Unlock()
		log.Append(Event{Kind: EvCommandSent, Module: name, Action: ar.Action})
		start := s.opts.Clock.Now()
		res, err := m.Act(req.Context(), ar.Action, ar.Args)
		dur := s.opts.Clock.Now().Sub(start)
		resp := actResponse{Result: res}
		if err != nil {
			// The typed error cannot cross the wire; its classification can.
			resp.Error = err.Error()
			resp.ErrClass = Classify(err).String()
			log.Append(Event{Kind: EvCommandFailed, Module: name, Action: ar.Action,
				Duration: dur, Err: err.Error()})
		} else {
			log.Append(Event{Kind: EvCommandDone, Module: name, Action: ar.Action, Duration: dur})
		}
		writeAction(w, resp)
	case "state":
		writeJSON(w, map[string]any{"state": string(m.State())})
	case "about":
		writeJSON(w, m.About())
	default:
		http.Error(w, "unknown endpoint", http.StatusNotFound)
	}
}

func (s *WorkcellServer) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	info := HealthInfo{
		OK:       true,
		Modules:  s.reg.Names(),
		Session:  s.session,
		Campaign: s.campaign,
		Commands: s.commands,
		Caps:     s.opts.Caps,
	}
	s.mu.RUnlock()
	writeJSON(w, info)
}

func (s *WorkcellServer) handleReset(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var rr resetRequest
	// An empty body is a valid anonymous reset.
	if err := json.NewDecoder(req.Body).Decode(&rr); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	info, err := s.reset(rr.Campaign)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, info)
}

func (s *WorkcellServer) handleSession(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	info := SessionInfo{
		Session:  s.session,
		Campaign: s.campaign,
		Started:  s.started,
		Commands: s.commands,
		Events:   s.log.Events(),
	}
	s.mu.RUnlock()
	writeJSON(w, info)
}

// ServeModules returns an http.Handler exposing every module in the
// registry under /modules/<name>/{action,state,about}, plus /healthz. It is
// the fixed-module-set convenience over NewWorkcellServer: sessions work,
// but /reset cannot provision fresh modules.
func ServeModules(reg *Registry) http.Handler {
	return NewWorkcellServer(reg, ServerOptions{}).Handler()
}

// writeAction writes resp as an action response body: the internal/form
// framing with resp as its head part, less the result's top-level
// strings, which follow as raw parts in key order. A string under a key
// no part name can hold stays in the head.
func writeAction(w http.ResponseWriter, resp actResponse) {
	var parts []form.Part
	if len(resp.Result) > 0 {
		head := make(Result, len(resp.Result))
		for k, v := range resp.Result {
			if s, ok := v.(string); ok && form.CheckName(k) == nil {
				parts = append(parts, form.Part{Name: resultPart + k, Data: []byte(s)})
			} else {
				head[k] = v
			}
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].Name < parts[j].Name })
		resp.Result = head
	}
	js, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, "wei: encode action response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	mw := form.NewWriter(w)
	w.Header().Set("Content-Type", mw.FormDataContentType())
	// Every part name is valid, so only a write to a gone client can fail.
	_ = form.Write(mw, responsePart, js, parts)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
