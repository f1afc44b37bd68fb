package wei

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colormatch/internal/sim"
)

func newHTTPFixture(t *testing.T) (*HTTPClient, *Registry) {
	t.Helper()
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	reg.Add(fakeModule("dev2", nil))
	srv := httptest.NewServer(ServeModules(reg))
	t.Cleanup(srv.Close)
	return NewHTTPClient(srv.URL, "dev1", "dev2"), reg
}

func TestHTTPActRoundTrip(t *testing.T) {
	c, _ := newHTTPFixture(t)
	res, err := c.Act(context.Background(), "dev1", "ping", Args{"echo": "over http"})
	if err != nil {
		t.Fatal(err)
	}
	if res["pong"] != true || res["echo"] != "over http" {
		t.Fatalf("result = %#v", res)
	}
}

func TestHTTPActionErrorPropagates(t *testing.T) {
	c, _ := newHTTPFixture(t)
	_, err := c.Act(context.Background(), "dev1", "boom", nil)
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPUnknownActionErrorPropagates(t *testing.T) {
	c, _ := newHTTPFixture(t)
	_, err := c.Act(context.Background(), "dev1", "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "no action") {
		t.Fatalf("err = %v", err)
	}
}

func TestHTTPUnknownModule(t *testing.T) {
	c, _ := newHTTPFixture(t)
	if _, err := c.Act(context.Background(), "ghost", "ping", nil); err == nil {
		t.Fatal("unknown module accepted")
	}
	// Module known to client but not to server.
	c.BaseURL["ghost"] = c.BaseURL["dev1"]
	if _, err := c.Act(context.Background(), "ghost", "ping", nil); err == nil ||
		!strings.Contains(err.Error(), "404") {
		t.Fatal("server-side unknown module not a 404")
	}
}

func TestHTTPStateAndAbout(t *testing.T) {
	c, _ := newHTTPFixture(t)
	ctx := context.Background()
	st, err := c.State(ctx, "dev2")
	if err != nil || st != StateReady {
		t.Fatalf("State = %v, %v", st, err)
	}
	info, err := c.About(ctx, "dev1")
	if err != nil || info.Name != "dev1" || len(info.Actions) != 2 {
		t.Fatalf("About = %+v, %v", info, err)
	}
}

func TestHTTPEngineEndToEnd(t *testing.T) {
	// The engine must behave identically over HTTP as in-process.
	reg := NewRegistry()
	clock := sim.NewSimClockAt(sim.Epoch)
	reg.Add(slowModule("dev", clock, 10*time.Second))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()

	client := NewHTTPClient(srv.URL, "dev")
	eng := NewEngine(client, clock, NewEventLog(clock))
	rec, err := eng.RunWorkflow(context.Background(), &WorkflowSpec{
		Name:  "http_wf",
		Steps: []Step{{Name: "s", Module: "dev", Action: "work"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Steps[0].Result["ok"] != true {
		t.Fatalf("result = %#v", rec.Steps[0].Result)
	}
	if rec.Steps[0].Duration != 10*time.Second {
		t.Fatalf("virtual duration over HTTP = %v", rec.Steps[0].Duration)
	}
}

func TestHealthz(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPBadPaths(t *testing.T) {
	reg := NewRegistry()
	reg.Add(fakeModule("dev1", nil))
	srv := httptest.NewServer(ServeModules(reg))
	defer srv.Close()
	for _, path := range []string{"/modules/", "/modules/dev1", "/modules/dev1/unknown", "/modules/ghost/state"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("path %q returned 200", path)
		}
	}
}
