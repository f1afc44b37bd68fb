package core

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"colormatch/internal/wei"
)

// twinClient sends every command both to an in-process workcell and, over
// HTTP, to its twin built from the same seed, and fails the test when the
// two answers differ. Callers get the in-process answer.
type twinClient struct {
	t      *testing.T
	local  *wei.Registry
	remote *wei.HTTPClient

	mu     sync.Mutex
	called map[string]bool // "module.action"
}

func (c *twinClient) Act(ctx context.Context, module, action string, args wei.Args) (wei.Result, error) {
	want, wantErr := c.local.Act(ctx, module, action, args)
	got, gotErr := c.remote.Act(ctx, module, action, args)
	if (wantErr == nil) != (gotErr == nil) {
		c.t.Errorf("%s.%s: error %v in process, %v over HTTP", module, action, wantErr, gotErr)
	}
	if !reflect.DeepEqual(got, want) {
		c.t.Errorf("%s.%s: result over HTTP\n%#v\nin process\n%#v", module, action, got, want)
	}
	c.mu.Lock()
	c.called[module+"."+action] = true
	c.mu.Unlock()
	return want, wantErr
}

func (c *twinClient) State(ctx context.Context, module string) (wei.ModuleState, error) {
	return c.local.State(ctx, module)
}

func (c *twinClient) About(ctx context.Context, module string) (wei.ModuleInfo, error) {
	return c.local.About(ctx, module)
}

// TestActionResultsSameOverHTTP: every action the application's workflows
// call returns over HTTP a Result deeply equal to the in-process one, so
// take_picture's image_png string is byte for byte the same.
func TestActionResultsSameOverHTTP(t *testing.T) {
	const seed = 5
	local := NewSimWorkcell(WorkcellOptions{Seed: seed})
	twin := NewSimWorkcell(WorkcellOptions{Seed: seed})
	srv := httptest.NewServer(wei.ServeModules(twin.Registry))
	defer srv.Close()
	client := &twinClient{
		t:      t,
		local:  local.Registry,
		remote: wei.NewHTTPClient(srv.URL, twin.Registry.Names()...),
		called: map[string]bool{},
	}
	engine := wei.NewEngine(client, local.Clock, wei.NewEventLog(local.Clock))
	// Pure black drains one reservoir within a plate, so the replenish
	// workflow runs too, and a second plate trashes the first.
	app, err := NewApp(Config{Experiment: "wire", BatchSize: 16, TotalSamples: 112}, engine, blackSolver{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	newPlate, mix, trash, replenish, err := Workflows("ot2")
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []*wei.WorkflowSpec{newPlate, mix, trash, replenish} {
		for _, s := range wf.Steps {
			if !client.called[s.Module+"."+s.Action] {
				t.Errorf("workflow %s step %s: %s.%s never called", wf.Name, s.Name, s.Module, s.Action)
			}
		}
	}
}
