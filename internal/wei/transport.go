package wei

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"colormatch/internal/form"
)

// Registry is the in-process Client: modules run in the same address space
// and commands are direct method calls. It is also the module set that
// ServeModules exposes over HTTP.
type Registry struct {
	mu      sync.RWMutex
	modules map[string]Module
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{modules: make(map[string]Module)}
}

// Add registers a module. Duplicate names are a programming error.
func (r *Registry) Add(m Module) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.modules[m.Name()]; dup {
		panic(fmt.Sprintf("wei: duplicate module %q", m.Name()))
	}
	r.modules[m.Name()] = m
}

// Get looks a module up by name.
func (r *Registry) Get(name string) (Module, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m, ok := r.modules[name]
	return m, ok
}

// Names returns the registered module names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.modules))
	for n := range r.modules {
		out = append(out, n)
	}
	return out
}

// ErrNoModule reports a command for an unknown module.
type ErrNoModule struct{ Module string }

// Error implements error.
func (e *ErrNoModule) Error() string { return fmt.Sprintf("wei: unknown module %q", e.Module) }

// Act implements Client.
func (r *Registry) Act(ctx context.Context, module, action string, args Args) (Result, error) {
	m, ok := r.Get(module)
	if !ok {
		return nil, &ErrNoModule{Module: module}
	}
	return m.Act(ctx, action, args)
}

// State implements Client.
func (r *Registry) State(ctx context.Context, module string) (ModuleState, error) {
	m, ok := r.Get(module)
	if !ok {
		return "", &ErrNoModule{Module: module}
	}
	return m.State(), nil
}

// About implements Client.
func (r *Registry) About(ctx context.Context, module string) (ModuleInfo, error) {
	m, ok := r.Get(module)
	if !ok {
		return ModuleInfo{}, &ErrNoModule{Module: module}
	}
	return m.About(), nil
}

// The HTTP wire protocol: each module is exposed under /modules/<name>/ with
//   POST action  {"action": ..., "args": {...}} -> action response body
//   GET  state   -> {"state": "ready"}
//   GET  about   -> ModuleInfo
// plus the whole-workcell endpoints served by WorkcellServer:
//   GET  /healthz -> HealthInfo
//   POST /reset   {"campaign": ...} -> ResetInfo
//   GET  /session -> SessionInfo
// mirroring how WEI module servers expose device drivers on attached
// computers. Requests and every other answer are JSON. An action response
// body is one multipart/form-data body in the internal/form framing, the
// one the portal's records body uses, sent with its Content-Length:
//   - a head part "response": {"result": {...}} | {"error": ..., "err_class": ...},
//     the result without its top-level string values;
//   - one raw part per top-level string value, named "result/<key>", in
//     key order, so a camera frame crosses as its own bytes and not as a
//     JSON string.
// The client puts the strings back, so a Result reads the same over HTTP
// as in process.

// Part names of an action response body.
const (
	responsePart = "response"
	resultPart   = "result/"
)

type actRequest struct {
	Action string `json:"action"`
	Args   Args   `json:"args,omitempty"`
}

type actResponse struct {
	Result Result `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
	// ErrClass is the server-side Classify result for Error ("retryable",
	// "permanent"). Absent in responses from older servers, which the client
	// reads as retryable — today's behavior.
	ErrClass string `json:"err_class,omitempty"`
}

// Timeouts for the HTTP client. The command timeout must exceed the longest
// modeled instrument action run with -realtime: a plate transfer is ~42s of
// arm time, and a batch mix is SetupDuration + batch×WellDuration ≈ 8.5min
// at the default batch of four wells. Control-plane calls (health, reset,
// state) answer immediately and get a tight bound so a dead cell is detected
// quickly.
const (
	// DefaultActTimeout bounds one module command round-trip (default for
	// NewHTTPClient). Raise it via HTTPClient.HTTP for realtime runs with
	// large batches.
	DefaultActTimeout = 15 * time.Minute
	// DefaultControlTimeout bounds health, reset and state calls.
	DefaultControlTimeout = 10 * time.Second
)

// HTTPClient is a Client that reaches modules over HTTP. Each module maps to
// a base URL (scheme://host:port), so modules can be spread across machines
// as in the physical workcell.
type HTTPClient struct {
	// BaseURL maps module name to server base URL.
	BaseURL map[string]string
	// HTTP is the underlying http client (default: DefaultActTimeout).
	HTTP *http.Client
}

// NewHTTPClient returns a client for modules all served by one base URL,
// with the command timeout DefaultActTimeout. Set HTTP to change it.
func NewHTTPClient(baseURL string, modules ...string) *HTTPClient {
	m := make(map[string]string, len(modules))
	for _, name := range modules {
		m[name] = baseURL
	}
	return &HTTPClient{BaseURL: m, HTTP: &http.Client{Timeout: DefaultActTimeout}}
}

func (c *HTTPClient) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: DefaultActTimeout}
}

func (c *HTTPClient) moduleURL(module, endpoint string) (string, error) {
	base, ok := c.BaseURL[module]
	if !ok {
		return "", &ErrNoModule{Module: module}
	}
	return fmt.Sprintf("%s/modules/%s/%s", strings.TrimSuffix(base, "/"), module, endpoint), nil
}

// transportErr wraps a failed HTTP exchange. A live caller context means the
// server itself is unreachable or hung (ClassWorkcellDown); a dead caller
// context means the work was canceled, which must classify as permanent.
func transportErr(ctx context.Context, module, op string, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return fmt.Errorf("wei: %s %s: %w", op, module, ctxErr)
	}
	return &TransportError{Module: module, Op: op, Err: err}
}

// Act implements Client over HTTP.
func (c *HTTPClient) Act(ctx context.Context, module, action string, args Args) (Result, error) {
	url, err := c.moduleURL(module, "action")
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(actRequest{Action: action, Args: args})
	if err != nil {
		return nil, fmt.Errorf("wei: encode action request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc().Do(req)
	if err != nil {
		return nil, transportErr(ctx, module, "act", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return nil, &StatusError{Module: module, Op: "act", Code: resp.StatusCode,
			Body: strings.TrimSpace(string(msg))}
	}
	ar, err := readAction(resp.Header.Get("Content-Type"), resp.Body)
	if err != nil {
		// A malformed or truncated body from a supposedly healthy server is
		// a transport fault, not an action failure.
		return nil, transportErr(ctx, module, "decode", err)
	}
	if ar.Error != "" {
		return nil, &RemoteActionError{Module: module, Action: action,
			Msg: ar.Error, ErrClass: parseErrClass(ar.ErrClass)}
	}
	return ar.Result, nil
}

// readAction decodes an action response body written by writeAction.
func readAction(contentType string, body io.Reader) (actResponse, error) {
	var ar actResponse
	r, head, err := form.NewReader(contentType, body, responsePart)
	if err != nil {
		return ar, err
	}
	defer r.Close()
	if err := json.Unmarshal(head, &ar); err != nil {
		return ar, fmt.Errorf("%s part: %w", responsePart, err)
	}
	for {
		name, data, err := r.Next()
		if errors.Is(err, io.EOF) {
			return ar, nil
		}
		if err != nil {
			return ar, err
		}
		key, ok := strings.CutPrefix(name, resultPart)
		if !ok {
			return ar, fmt.Errorf("unexpected part %q", name)
		}
		if _, dup := ar.Result[key]; dup {
			return ar, fmt.Errorf("part %q: result key also in the head", name)
		}
		if ar.Result == nil {
			ar.Result = Result{}
		}
		ar.Result[key] = string(data)
	}
}

// State implements Client over HTTP.
func (c *HTTPClient) State(ctx context.Context, module string) (ModuleState, error) {
	url, err := c.moduleURL(module, "state")
	if err != nil {
		return "", err
	}
	var out struct {
		State string `json:"state"`
	}
	if err := c.getJSON(ctx, module, "state", url, &out); err != nil {
		return "", err
	}
	return ModuleState(out.State), nil
}

// About implements Client over HTTP.
func (c *HTTPClient) About(ctx context.Context, module string) (ModuleInfo, error) {
	url, err := c.moduleURL(module, "about")
	if err != nil {
		return ModuleInfo{}, err
	}
	var out ModuleInfo
	if err := c.getJSON(ctx, module, "about", url, &out); err != nil {
		return ModuleInfo{}, err
	}
	return out, nil
}

func (c *HTTPClient) getJSON(ctx context.Context, module, op, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return transportErr(ctx, module, op, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &StatusError{Module: module, Op: op, Code: resp.StatusCode,
			Body: strings.TrimSpace(string(msg))}
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return transportErr(ctx, module, "decode", err)
	}
	return nil
}

// WorkcellClient drives one remote workcell server's whole-cell endpoints —
// health-gated admission and the per-campaign session reset — and builds the
// per-module command client the engine uses. One WorkcellClient corresponds
// to one cell in a fleet pool.
type WorkcellClient struct {
	// Base is the server's base URL (scheme://host:port).
	Base string
	// HTTP is the control-plane client (default: DefaultControlTimeout).
	HTTP *http.Client
}

// NewWorkcellClient returns a client for the workcell server at base.
func NewWorkcellClient(base string) *WorkcellClient {
	return &WorkcellClient{
		Base: strings.TrimSuffix(base, "/"),
		HTTP: &http.Client{Timeout: DefaultControlTimeout},
	}
}

func (w *WorkcellClient) httpc() *http.Client {
	if w.HTTP != nil {
		return w.HTTP
	}
	return &http.Client{Timeout: DefaultControlTimeout}
}

// Health fetches /healthz. Any transport failure, non-200 status or
// undecodable body returns a ClassWorkcellDown error, so callers can gate
// admission with Classify.
func (w *WorkcellClient) Health(ctx context.Context) (HealthInfo, error) {
	var out HealthInfo
	if err := w.controlGet(ctx, "health", w.Base+"/healthz", &out); err != nil {
		return HealthInfo{}, err
	}
	if !out.OK {
		return out, &TransportError{Op: "health", Err: fmt.Errorf("server at %s reports not ok", w.Base)}
	}
	return out, nil
}

// Reset posts /reset, starting a new session: the server restores fresh
// module state (plate stock, reservoirs) and rolls its command log, so the
// next campaign starts from a clean cell with a private event boundary.
func (w *WorkcellClient) Reset(ctx context.Context, campaign string) (ResetInfo, error) {
	body, _ := json.Marshal(resetRequest{Campaign: campaign})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Base+"/reset", bytes.NewReader(body))
	if err != nil {
		return ResetInfo{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.httpc().Do(req)
	if err != nil {
		return ResetInfo{}, transportErr(ctx, "", "reset", err)
	}
	defer resp.Body.Close()
	var out ResetInfo
	if err := w.controlDecode("reset", resp, &out); err != nil {
		return ResetInfo{}, err
	}
	return out, nil
}

// ModuleClient returns an HTTPClient addressing the named modules at this
// workcell's base URL, with the command timeout DefaultActTimeout.
func (w *WorkcellClient) ModuleClient(modules ...string) *HTTPClient {
	return NewHTTPClient(w.Base, modules...)
}

func (w *WorkcellClient) controlGet(ctx context.Context, op, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.httpc().Do(req)
	if err != nil {
		return transportErr(ctx, "", op, err)
	}
	defer resp.Body.Close()
	return w.controlDecode(op, resp, v)
}

// controlDecode applies the control plane's shared response policy: any
// non-200 status or undecodable body means the cell cannot take campaigns,
// which is workcell-down regardless of the specific code — unlike module
// commands, where a 5xx is worth retrying in place.
func (w *WorkcellClient) controlDecode(op string, resp *http.Response, v any) error {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return &TransportError{Op: op, Err: fmt.Errorf("HTTP %d: %s",
			resp.StatusCode, strings.TrimSpace(string(msg)))}
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return &TransportError{Op: op, Err: err}
	}
	return nil
}
