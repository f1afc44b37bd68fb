package flow

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"colormatch/internal/portal"
	"colormatch/internal/sim"
)

func TestFlowRunsStepsInOrder(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	f := &Flow{Name: "seq", Steps: []Step{
		{Name: "a", Run: func(ctx context.Context, in Input) (Input, error) {
			return Input{"v": in["v"].(int) + 1}, nil
		}},
		{Name: "b", Run: func(ctx context.Context, in Input) (Input, error) {
			return Input{"v": in["v"].(int) * 10}, nil
		}},
	}}
	run := r.Submit(context.Background(), f, Input{"v": 1})
	out, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if out["v"] != 20 {
		t.Fatalf("output = %v", out)
	}
	if run.State() != StateSucceeded {
		t.Fatalf("state = %v", run.State())
	}
	start, end := run.Times()
	if start.IsZero() || end.Before(start) {
		t.Fatalf("times: %v %v", start, end)
	}
}

func TestFlowRetriesThenSucceeds(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	var calls atomic.Int32
	f := &Flow{Name: "retry", Steps: []Step{
		{Name: "flaky", Retries: 3, Run: func(ctx context.Context, in Input) (Input, error) {
			if calls.Add(1) < 3 {
				return nil, errors.New("transient")
			}
			return Input{"ok": true}, nil
		}},
	}}
	run := r.Submit(context.Background(), f, nil)
	out, err := run.Wait()
	if err != nil || out["ok"] != true {
		t.Fatalf("out=%v err=%v", out, err)
	}
	steps := run.Steps()
	if len(steps) != 1 || steps[0].Attempts != 3 {
		t.Fatalf("steps = %+v", steps)
	}
}

func TestFlowFailsAfterRetries(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	f := &Flow{Name: "fail", Steps: []Step{
		{Name: "bad", Retries: 1, Run: func(ctx context.Context, in Input) (Input, error) {
			return nil, errors.New("permanent")
		}},
		{Name: "never", Run: func(ctx context.Context, in Input) (Input, error) {
			t.Error("step after failure ran")
			return in, nil
		}},
	}}
	run := r.Submit(context.Background(), f, nil)
	_, err := run.Wait()
	if !errors.Is(err, ErrStepExhausted) {
		t.Fatalf("err = %v", err)
	}
	if run.State() != StateFailed {
		t.Fatalf("state = %v", run.State())
	}
	if steps := run.Steps(); len(steps) != 1 || steps[0].Attempts != 2 || steps[0].Err == "" {
		t.Fatalf("steps = %+v", steps)
	}
}

func TestRunnerTracksManyRuns(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	f := &Flow{Name: "n", Steps: []Step{
		{Name: "s", Run: func(ctx context.Context, in Input) (Input, error) { return in, nil }},
	}}
	for i := 0; i < 20; i++ {
		r.Submit(context.Background(), f, Input{"i": i})
	}
	r.WaitAll()
	runs := r.Runs()
	if len(runs) != 20 {
		t.Fatalf("runs = %d", len(runs))
	}
	counts := r.Counts()
	if counts[StateSucceeded] != 20 {
		t.Fatalf("counts = %v", counts)
	}
	// IDs unique.
	seen := map[string]bool{}
	for _, run := range runs {
		if seen[run.ID] {
			t.Fatalf("duplicate run id %s", run.ID)
		}
		seen[run.ID] = true
	}
}

func TestPublishColorPickerFlow(t *testing.T) {
	store := portal.NewStore()
	f := PublishColorPicker(store)
	r := NewRunner(sim.NewSimClock())
	rec := portal.Record{
		Experiment: "pubtest",
		Run:        1,
		Fields:     map[string]any{"best_score": 5.0},
		Files:      map[string][]byte{"plate.png": []byte("png")},
	}
	run := r.Submit(context.Background(), f, Input{"record": rec})
	out, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("no id in output: %v", out)
	}
	got, err := store.Get(id)
	if err != nil || got.Experiment != "pubtest" {
		t.Fatalf("stored = %+v, %v", got, err)
	}
}

func TestPublishColorPickerValidation(t *testing.T) {
	store := portal.NewStore()
	f := PublishColorPicker(store)
	r := NewRunner(sim.NewSimClock())
	// Missing record.
	if _, err := r.Submit(context.Background(), f, Input{}).Wait(); err == nil {
		t.Fatal("missing record accepted")
	}
	// Record without experiment.
	if _, err := r.Submit(context.Background(), f, Input{"record": portal.Record{}}).Wait(); err == nil {
		t.Fatal("empty record accepted")
	}
	if store.Len() != 0 {
		t.Fatal("invalid records ingested")
	}
}

func TestPublishRetriesFlakyPortal(t *testing.T) {
	flaky := &flakyIngestor{failFirst: 2, store: portal.NewStore()}
	f := PublishColorPicker(flaky)
	r := NewRunner(sim.NewSimClock())
	run := r.Submit(context.Background(), f, Input{"record": portal.Record{Experiment: "x"}})
	if _, err := run.Wait(); err != nil {
		t.Fatalf("publish did not survive flaky portal: %v", err)
	}
	if flaky.store.Len() != 1 {
		t.Fatal("record not ingested after retries")
	}
	// Every attempt carries the one key the flow run minted, so a retry
	// after a lost response would be deduplicated.
	if len(flaky.keys) != 3 || flaky.keys[0] == "" || flaky.keys[1] != flaky.keys[0] || flaky.keys[2] != flaky.keys[0] {
		t.Fatalf("attempt keys = %q, want one non-empty key on all 3", flaky.keys)
	}
}

type flakyIngestor struct {
	failFirst int
	calls     int
	keys      []string
	store     *portal.Store
}

func (f *flakyIngestor) IngestBatchKeyed(key string, recs []portal.Record) ([]string, error) {
	f.calls++
	f.keys = append(f.keys, key)
	if f.calls <= f.failFirst {
		return nil, fmt.Errorf("portal unavailable (call %d)", f.calls)
	}
	return f.store.IngestBatchKeyed(key, recs)
}

// TestFlowCanceledBetweenSteps: a canceled submission stops at the next step
// boundary and records the run as failed with the context's error, instead
// of executing the remaining steps to completion.
func TestFlowCanceledBetweenSteps(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	f := &Flow{Name: "canceled", Steps: []Step{
		{Name: "first", Run: func(ctx context.Context, in Input) (Input, error) {
			ran.Add(1)
			cancel()
			return in, nil
		}},
		{Name: "second", Run: func(ctx context.Context, in Input) (Input, error) {
			ran.Add(1)
			return in, nil
		}},
	}}
	_, err := r.Submit(ctx, f, Input{}).Wait()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 1 {
		t.Fatalf("ran %d steps after cancellation, want 1", ran.Load())
	}
}

// TestFlowCanceledStopsRetries: cancellation mid-step stops the retry loop
// instead of burning the remaining attempts.
func TestFlowCanceledStopsRetries(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	f := &Flow{Name: "retry_cancel", Steps: []Step{
		{Name: "doomed", Retries: 5, Run: func(ctx context.Context, in Input) (Input, error) {
			calls.Add(1)
			cancel()
			return nil, fmt.Errorf("portal down")
		}},
	}}
	run := r.Submit(ctx, f, Input{})
	if _, err := run.Wait(); err == nil {
		t.Fatal("expected failure")
	}
	if calls.Load() != 1 {
		t.Fatalf("step attempted %d times after cancellation, want 1", calls.Load())
	}
	if run.State() != StateFailed {
		t.Fatalf("state = %v", run.State())
	}
	steps := run.Steps()
	if len(steps) != 1 || steps[0].Attempts != 1 {
		t.Fatalf("step log = %+v", steps)
	}
}

// TestFlowCanceledBeforeStart: a run submitted with an already-canceled
// context fails without executing anything.
func TestFlowCanceledBeforeStart(t *testing.T) {
	r := NewRunner(sim.NewSimClock())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	f := &Flow{Name: "dead_on_arrival", Steps: []Step{
		{Name: "only", Run: func(ctx context.Context, in Input) (Input, error) {
			ran.Add(1)
			return in, nil
		}},
	}}
	_, err := r.Submit(ctx, f, Input{}).Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("step ran under canceled context")
	}
}
