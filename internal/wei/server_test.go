package wei

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPNonJSONResponse: a 200 with a garbage body is a transport fault
// (the "server" is not speaking the protocol), classified workcell-down.
func TestHTTPNonJSONResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("<html>this is not a module server</html>"))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "dev")
	_, err := c.Act(context.Background(), "dev", "ping", nil)
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v (%T), want TransportError", err, err)
	}
	if Classify(err) != ClassWorkcellDown {
		t.Fatalf("classified %v, want workcell_down", Classify(err))
	}
}

// TestHTTPTruncatedResponse: a body cut off mid-JSON is also transport.
func TestHTTPTruncatedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"result": {"pong": tru`))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "dev")
	if _, err := c.Act(context.Background(), "dev", "ping", nil); Classify(err) != ClassWorkcellDown {
		t.Fatalf("truncated body: err = %v, class %v", err, Classify(err))
	}
}

// TestHTTPOversizedErrorBody: a huge non-200 body must be truncated into the
// error, not slurped whole.
func TestHTTPOversizedErrorBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		w.Write([]byte(strings.Repeat("x", 1<<20)))
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "dev")
	_, err := c.Act(context.Background(), "dev", "ping", nil)
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v (%T), want StatusError", err, err)
	}
	if len(se.Body) > 1024 {
		t.Fatalf("error body not truncated: %d bytes", len(se.Body))
	}
	if Classify(err) != ClassRetryable {
		t.Fatalf("502 classified %v, want retryable", Classify(err))
	}
}

// TestHTTPUnknownModule404Permanent: the server-side unknown module is a 404
// and classifies permanent — no retries, no rescheduling.
func TestHTTPUnknownModule404Permanent(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "ghost")
	_, err := c.Act(context.Background(), "ghost", "ping", nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 404 {
		t.Fatalf("err = %v, want 404 StatusError", err)
	}
	if Classify(err) != ClassPermanent {
		t.Fatalf("classified %v, want permanent", Classify(err))
	}
}

// TestHTTPActionErrorClassRoundTrip: the server classifies its own module
// errors and the class rides the response, so an unknown action is permanent
// on the client side too while an ordinary device failure stays retryable.
func TestHTTPActionErrorClassRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	c := NewHTTPClient(srv.URL, "dev1")
	ctx := context.Background()

	_, err := c.Act(ctx, "dev1", "no_such_action", nil)
	var re *RemoteActionError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RemoteActionError", err, err)
	}
	if re.ErrClass != ClassPermanent || Classify(err) != ClassPermanent {
		t.Fatalf("unknown action crossed the wire as %v, want permanent", re.ErrClass)
	}

	_, err = c.Act(ctx, "dev1", "boom", nil)
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want RemoteActionError", err, err)
	}
	if re.ErrClass != ClassRetryable || !strings.Contains(re.Msg, "kaboom") {
		t.Fatalf("device error crossed as class=%v msg=%q", re.ErrClass, re.Msg)
	}
}

// TestHTTPConnectionRefusedWorkcellDown: a dead server classifies as
// workcell-down, the signal the fleet uses to retire a cell.
func TestHTTPConnectionRefusedWorkcellDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	c := NewHTTPClient(url, "dev")
	_, err := c.Act(context.Background(), "dev", "ping", nil)
	if Classify(err) != ClassWorkcellDown {
		t.Fatalf("dead server: err = %v, class %v", err, Classify(err))
	}
	if _, err := c.State(context.Background(), "dev"); Classify(err) != ClassWorkcellDown {
		t.Fatalf("dead server State: class %v", Classify(err))
	}
}

// TestHTTPCanceledContextPermanent: the caller canceling mid-request is a
// permanent error (stop the campaign), not a dead workcell.
func TestHTTPCanceledContextPermanent(t *testing.T) {
	block := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer func() { close(block); srv.Close() }()
	c := NewHTTPClient(srv.URL, "dev")
	ctx, cancel := context.WithCancel(context.Background())
	go cancel()
	_, err := c.Act(ctx, "dev", "ping", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if Classify(err) != ClassPermanent {
		t.Fatalf("caller-canceled request classified %v (%v), want permanent", Classify(err), err)
	}
}

func TestWorkcellServerResetSwapsModules(t *testing.T) {
	builds := 0
	mkReg := func() *Registry {
		builds++
		reg := NewRegistry()
		reg.Add(fakeModule("dev1", nil))
		return reg
	}
	ws := NewWorkcellServer(mkReg(), ServerOptions{Reset: func() (*Registry, error) {
		return mkReg(), nil
	}})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	wcc := NewWorkcellClient(srv.URL)
	ctx := context.Background()

	h, err := wcc.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.OK || h.Session != 1 || len(h.Modules) != 1 {
		t.Fatalf("health = %+v", h)
	}

	// Commands count within the session.
	c := wcc.ModuleClient("dev1")
	if _, err := c.Act(ctx, "dev1", "ping", nil); err != nil {
		t.Fatal(err)
	}
	h, _ = wcc.Health(ctx)
	if h.Commands != 1 {
		t.Fatalf("commands = %d, want 1", h.Commands)
	}

	// Reset: new session, fresh modules, rolled counters.
	info, err := wcc.Reset(ctx, "campaign_a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Session != 2 || len(info.Modules) != 1 {
		t.Fatalf("reset = %+v", info)
	}
	if builds != 2 {
		t.Fatalf("reset did not provision fresh modules (builds=%d)", builds)
	}
	h, _ = wcc.Health(ctx)
	if h.Session != 2 || h.Commands != 0 || h.Campaign != "campaign_a" {
		t.Fatalf("post-reset health = %+v", h)
	}
	if ws.Session() != 2 {
		t.Fatalf("server session = %d", ws.Session())
	}
}

// TestWorkcellServerSessionLogBoundary: the server-side command log rolls at
// each reset, giving every campaign a private event boundary.
func TestWorkcellServerSessionLogBoundary(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	ws := NewWorkcellServer(reg, ServerOptions{})
	srv := httptest.NewServer(ws.Handler())
	defer srv.Close()
	wcc := NewWorkcellClient(srv.URL)
	c := wcc.ModuleClient("dev1")
	ctx := context.Background()

	c.Act(ctx, "dev1", "ping", nil)
	c.Act(ctx, "dev1", "boom", nil)

	var s1 SessionInfo
	if err := wcc.controlGet(ctx, "session", srv.URL+"/session", &s1); err != nil {
		t.Fatal(err)
	}
	if s1.Commands != 2 || len(s1.Events) != 4 { // sent+done, sent+failed
		t.Fatalf("session 1 = commands %d events %d", s1.Commands, len(s1.Events))
	}

	// Without a Reset hook /reset still starts a new session boundary.
	if _, err := wcc.Reset(ctx, "next"); err != nil {
		t.Fatal(err)
	}
	var s2 SessionInfo
	if err := wcc.controlGet(ctx, "session", srv.URL+"/session", &s2); err != nil {
		t.Fatal(err)
	}
	if s2.Session != 2 || s2.Commands != 0 || len(s2.Events) != 0 || s2.Campaign != "next" {
		t.Fatalf("session 2 = %+v", s2)
	}
}

func TestWorkcellClientHealthAgainstDeadServer(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close()
	wcc := NewWorkcellClient(url)
	if _, err := wcc.Health(context.Background()); Classify(err) != ClassWorkcellDown {
		t.Fatalf("dead server health: %v", err)
	}
	if _, err := wcc.Reset(context.Background(), "x"); Classify(err) != ClassWorkcellDown {
		t.Fatalf("dead server reset: %v", err)
	}
}

func TestWorkcellServerResetMethodGuard(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/reset")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reset = %d, want 405", resp.StatusCode)
	}
}

// TestWorkcellClientControlPlaneNon200WorkcellDown: the control plane has
// one policy for any non-200 — the cell cannot take campaigns, so both
// /healthz and /reset classify it workcell-down (module commands, by
// contrast, treat 5xx as retryable in place).
func TestWorkcellClientControlPlaneNon200WorkcellDown(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "reset hook failed", http.StatusInternalServerError)
	}))
	defer srv.Close()
	wcc := NewWorkcellClient(srv.URL)
	if _, err := wcc.Reset(context.Background(), "c01"); Classify(err) != ClassWorkcellDown {
		t.Fatalf("500 reset classified %v (%v), want workcell_down", Classify(err), err)
	}
	if _, err := wcc.Health(context.Background()); Classify(err) != ClassWorkcellDown {
		t.Fatalf("500 health classified %v (%v), want workcell_down", Classify(err), err)
	}
}
