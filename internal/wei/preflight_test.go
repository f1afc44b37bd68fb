package wei

import (
	"context"
	"strings"
	"testing"

	"colormatch/internal/sim"
)

func TestPreflightAcceptsValidWorkflow(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	reg.Add(fakeModule("dev", nil))
	eng := NewEngine(reg, clock, NewEventLog(clock))
	wf := &WorkflowSpec{Name: "w", Steps: []Step{
		{Name: "s1", Module: "dev", Action: "ping"},
		{Name: "s2", Module: "dev", Action: "boom"},
	}}
	if err := eng.Preflight(context.Background(), wf); err != nil {
		t.Fatal(err)
	}
	// Preflight must not have executed anything.
	if eng.Log.Len() != 0 {
		t.Fatalf("preflight logged %d events", eng.Log.Len())
	}
}

func TestPreflightRejectsUnknownAction(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	reg.Add(fakeModule("dev", nil))
	eng := NewEngine(reg, clock, NewEventLog(clock))
	wf := &WorkflowSpec{Name: "w", Steps: []Step{
		{Name: "s", Module: "dev", Action: "teleport"},
	}}
	err := eng.Preflight(context.Background(), wf)
	if err == nil || !strings.Contains(err.Error(), "teleport") {
		t.Fatalf("err = %v", err)
	}
}

func TestPreflightRejectsUnknownModule(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	eng := NewEngine(NewRegistry(), clock, NewEventLog(clock))
	wf := &WorkflowSpec{Name: "w", Steps: []Step{
		{Name: "s", Module: "ghost", Action: "ping"},
	}}
	if err := eng.Preflight(context.Background(), wf); err == nil {
		t.Fatal("unknown module accepted")
	}
}
