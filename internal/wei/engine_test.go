package wei

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"colormatch/internal/sim"
	"colormatch/internal/yamlite"
)

// slowModule sleeps on the clock for each action, simulating device work.
func slowModule(name string, clock sim.Clock, d time.Duration) *Base {
	b := NewBase(name, "slow", "")
	b.Register(ActionInfo{Name: "work"}, func(ctx context.Context, args Args) (Result, error) {
		clock.Sleep(d)
		return Result{"ok": true}, nil
	})
	return b
}

func testEngine(t *testing.T, faults *sim.Injector) (*Engine, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	reg.Add(slowModule("dev", clock, 30*time.Second))
	eng := NewEngine(reg, clock, NewEventLog(clock))
	eng.Faults = faults
	return eng, clock
}

func wfOneStep() *WorkflowSpec {
	return &WorkflowSpec{Name: "wf_test", Steps: []Step{
		{Name: "s1", Module: "dev", Action: "work"},
		{Name: "s2", Module: "dev", Action: "work"},
	}}
}

func TestEngineRunsStepsInOrder(t *testing.T) {
	eng, clock := testEngine(t, nil)
	rec, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Steps) != 2 {
		t.Fatalf("steps = %d", len(rec.Steps))
	}
	if rec.Duration != 60*time.Second {
		t.Fatalf("workflow duration %v, want 60s", rec.Duration)
	}
	if !rec.Steps[1].Start.Equal(rec.Steps[0].End) {
		t.Fatalf("steps not sequential: %v vs %v", rec.Steps[1].Start, rec.Steps[0].End)
	}
	if clock.Now().Sub(sim.Epoch) != 60*time.Second {
		t.Fatalf("clock advanced %v", clock.Now().Sub(sim.Epoch))
	}
	// Event log must show start/end pairs and two completed commands.
	var done, sent int
	for _, e := range eng.Log.Events() {
		switch e.Kind {
		case EvCommandDone:
			done++
		case EvCommandSent:
			sent++
		}
	}
	if done != 2 || sent != 2 {
		t.Fatalf("done=%d sent=%d", done, sent)
	}
}

func TestEngineRetriesTransientFaults(t *testing.T) {
	// 60% receive-fault probability: with 3 attempts most steps succeed;
	// run enough workflows that at least one retry must have happened.
	faults := sim.NewInjector(sim.FaultPlan{PReceive: 0.6}, sim.NewRNG(5))
	eng, _ := testEngine(t, faults)
	eng.MaxAttempts = 10
	succeeded := 0
	retried := 0
	for i := 0; i < 20; i++ {
		rec, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil)
		if err == nil {
			succeeded++
		}
		for _, s := range rec.Steps {
			if s.Attempts > 1 {
				retried++
			}
		}
	}
	if succeeded != 20 {
		t.Fatalf("only %d/20 workflows succeeded with retries", succeeded)
	}
	if retried == 0 {
		t.Fatal("no step ever retried at 60% fault rate")
	}
	if faults.Total() == 0 {
		t.Fatal("injector reports no faults")
	}
}

func TestEngineFailsAfterMaxAttempts(t *testing.T) {
	faults := sim.NewInjector(sim.FaultPlan{PReceive: 1}, sim.NewRNG(1))
	eng, _ := testEngine(t, faults)
	rec, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil)
	if !errors.Is(err, ErrStepFailed) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("err does not wrap injected fault: %v", err)
	}
	// First step fails; second never runs.
	if len(rec.Steps) != 1 || rec.Steps[0].Attempts != 3 {
		t.Fatalf("steps = %+v", rec.Steps)
	}
	var failed int
	for _, e := range eng.Log.Events() {
		if e.Kind == EvCommandFailed {
			failed++
		}
	}
	if failed != 3 {
		t.Fatalf("failed command events = %d, want 3", failed)
	}
}

func TestEngineReportFaultRunsAction(t *testing.T) {
	// A report fault executes the action but loses the acknowledgment: the
	// device worked (clock advanced) yet the command counts as failed.
	faults := sim.NewInjector(sim.FaultPlan{PReport: 1}, sim.NewRNG(1))
	eng, clock := testEngine(t, faults)
	eng.MaxAttempts = 1
	_, err := eng.RunWorkflow(context.Background(),
		&WorkflowSpec{Name: "w", Steps: []Step{{Name: "s", Module: "dev", Action: "work"}}}, nil)
	if err == nil {
		t.Fatal("report fault not surfaced")
	}
	if clock.Now().Sub(sim.Epoch) < 30*time.Second {
		t.Fatal("action did not run on report fault")
	}
}

func TestEngineUnresolvedParamFailsFast(t *testing.T) {
	eng, _ := testEngine(t, nil)
	wf := &WorkflowSpec{Name: "w", Steps: []Step{
		{Name: "s", Module: "dev", Action: "work", Args: yamlite.Map{"v": "$missing"}},
	}}
	if _, err := eng.RunWorkflow(context.Background(), wf, nil); err == nil {
		t.Fatal("unresolved param accepted")
	}
	// The failure-path step_end must carry the same Module/Action fields as
	// every other step_end, so event consumers can key on them uniformly.
	found := false
	for _, e := range eng.Log.Events() {
		if e.Kind == EvStepEnd && e.Step == "s" {
			found = true
			if e.Module != "dev" || e.Action != "work" || e.Err == "" {
				t.Fatalf("substitution-failure step_end = %+v, want module/action/err populated", e)
			}
		}
	}
	if !found {
		t.Fatal("no step_end event for the failed step")
	}
}

func TestEngineWritesRunRecordFile(t *testing.T) {
	eng, _ := testEngine(t, nil)
	dir := t.TempDir()
	eng.RecordDir = dir
	if _, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("record files = %v, %v", entries, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	var rec RunRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Workflow != "wf_test" || len(rec.Steps) != 2 {
		t.Fatalf("rec = %+v", rec)
	}
	if rec.Steps[0].Duration != 30*time.Second {
		t.Fatalf("step duration %v", rec.Steps[0].Duration)
	}
}

func TestEventLogJSONRoundTrip(t *testing.T) {
	eng, _ := testEngine(t, nil)
	if _, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Log.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	events, err := ReadEventsJSON(rf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != eng.Log.Len() {
		t.Fatalf("round trip %d events, want %d", len(events), eng.Log.Len())
	}
	for i, e := range eng.Log.Events() {
		if events[i].Kind != e.Kind || !events[i].Time.Equal(e.Time) {
			t.Fatalf("event %d mismatch", i)
		}
	}
}

func TestEngineStepTimingMatchesClock(t *testing.T) {
	eng, _ := testEngine(t, nil)
	rec, err := eng.RunWorkflow(context.Background(), wfOneStep(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Steps {
		if s.Duration != 30*time.Second {
			t.Fatalf("step %q duration %v", s.Name, s.Duration)
		}
		if !s.End.Equal(s.Start.Add(s.Duration)) {
			t.Fatalf("step %q end != start+duration", s.Name)
		}
	}
}
