package wei

import (
	"context"
	"errors"
	"testing"
	"time"

	"colormatch/internal/sim"
)

// TestWithLogForksLogSharesRest covers the engine-pooling seam: a forked
// engine writes to its own event log while reusing the client, clock, fault
// injector and retry policy.
func TestWithLogForksLogSharesRest(t *testing.T) {
	eng, clock := testEngine(t, nil)
	eng.MaxAttempts = 2
	eng.RetryDelay = time.Second

	fork := eng.WithLog(NewEventLog(clock))
	if fork.Log == eng.Log {
		t.Fatal("fork shares the event log")
	}
	if fork.Client != eng.Client || fork.Clock != eng.Clock {
		t.Fatal("fork does not share client/clock")
	}
	if fork.MaxAttempts != 2 || fork.RetryDelay != time.Second {
		t.Fatal("fork lost retry policy")
	}

	if _, err := fork.RunWorkflow(context.Background(), wfOneStep(), nil); err != nil {
		t.Fatal(err)
	}
	if n := len(fork.Log.Events()); n == 0 {
		t.Fatal("fork log empty")
	}
	if n := len(eng.Log.Events()); n != 0 {
		t.Fatalf("original log received %d events from the fork", n)
	}
}

func TestRunWorkflowCanceledBeforeStart(t *testing.T) {
	eng, _ := testEngine(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := eng.RunWorkflow(ctx, wfOneStep(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rec.Steps) != 0 {
		t.Fatalf("executed %d steps after cancellation", len(rec.Steps))
	}
}

// TestRunWorkflowCanceledBetweenSteps cancels during the first step's device
// work; the workflow must stop at the step boundary instead of running the
// remaining steps.
func TestRunWorkflowCanceledBetweenSteps(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	b := NewBase("dev", "slow", "")
	b.Register(ActionInfo{Name: "work"}, func(ctx context.Context, args Args) (Result, error) {
		clock.Sleep(30 * time.Second)
		cancel()
		return Result{"ok": true}, nil
	})
	reg.Add(b)
	eng := NewEngine(reg, clock, NewEventLog(clock))

	rec, err := eng.RunWorkflow(ctx, wfOneStep(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rec.Steps) != 1 {
		t.Fatalf("executed %d steps, want 1 (stop at boundary)", len(rec.Steps))
	}
	if rec.Steps[0].Err != "" {
		t.Fatalf("first step should have succeeded: %q", rec.Steps[0].Err)
	}
}
