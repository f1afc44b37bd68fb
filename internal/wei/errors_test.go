package wei

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"colormatch/internal/sim"
)

func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"nil", nil, ClassRetryable},
		{"plain", errors.New("instrument glitch"), ClassRetryable},
		{"injected fault", &sim.FaultError{Kind: sim.FaultReceive, Module: "ot2", Action: "mix"}, ClassRetryable},
		{"canceled", context.Canceled, ClassPermanent},
		{"deadline", context.DeadlineExceeded, ClassPermanent},
		{"wrapped canceled", fmt.Errorf("core: mix: %w", context.Canceled), ClassPermanent},
		{"no module", &ErrNoModule{Module: "ghost"}, ClassPermanent},
		{"unknown action", &ErrUnknownAction{Module: "dev", Action: "nope"}, ClassPermanent},
		{"transport", &TransportError{Module: "dev", Op: "act", Err: errors.New("connection refused")}, ClassWorkcellDown},
		{"transport wrapping deadline", &TransportError{Op: "act", Err: context.DeadlineExceeded}, ClassWorkcellDown},
		{"status 404", &StatusError{Module: "ghost", Op: "act", Code: 404, Body: "unknown module"}, ClassPermanent},
		{"status 503", &StatusError{Module: "dev", Op: "act", Code: 503, Body: "overloaded"}, ClassRetryable},
		{"remote permanent", &RemoteActionError{Module: "dev", Action: "nope", Msg: "no action", ErrClass: ClassPermanent}, ClassPermanent},
		{"remote retryable", &RemoteActionError{Module: "dev", Action: "mix", Msg: "glitch"}, ClassRetryable},
		{"step-failed wrap", fmt.Errorf("%w: dev.act: %w", ErrStepFailed, &ErrNoModule{Module: "dev"}), ClassPermanent},
		{"deep wrap", fmt.Errorf("core: mix: %w", fmt.Errorf("%w: dev.a: %w", ErrStepFailed,
			&TransportError{Op: "act", Err: errors.New("EOF")})), ClassWorkcellDown},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestErrClassString(t *testing.T) {
	for _, c := range []ErrClass{ClassRetryable, ClassPermanent, ClassWorkcellDown} {
		if parseErrClass(c.String()) != c {
			t.Errorf("parseErrClass(%q) != %v", c.String(), c)
		}
	}
	// Unknown or absent wire strings default to retryable: older servers
	// without err_class must keep today's retry behavior.
	if parseErrClass("") != ClassRetryable || parseErrClass("gibberish") != ClassRetryable {
		t.Error("unknown class strings should parse as retryable")
	}
}

// TestEnginePermanentErrorSingleAttempt is the acceptance criterion: a step
// hitting an unknown module or action fails in exactly one attempt, with no
// retry sleeps inflating the virtual clock.
func TestEnginePermanentErrorSingleAttempt(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	reg.Add(fakeModule("dev", nil))
	eng := NewEngine(reg, clock, NewEventLog(clock))

	for _, step := range []Step{
		{Name: "ghost", Module: "ghost", Action: "ping"},
		{Name: "noact", Module: "dev", Action: "no_such_action"},
	} {
		start := clock.Now()
		rec, err := eng.RunWorkflow(context.Background(), &WorkflowSpec{
			Name: "wf_perm", Steps: []Step{step},
		}, nil)
		if err == nil || !errors.Is(err, ErrStepFailed) {
			t.Fatalf("step %s: err = %v", step.Name, err)
		}
		if Classify(err) != ClassPermanent {
			t.Errorf("step %s classified %v, want permanent", step.Name, Classify(err))
		}
		if got := rec.Steps[0].Attempts; got != 1 {
			t.Errorf("step %s attempts = %d, want 1", step.Name, got)
		}
		if dur := clock.Now().Sub(start); dur != 0 {
			t.Errorf("step %s consumed %v of virtual time (retry sleeps?)", step.Name, dur)
		}
	}
	// No EvCommandSent beyond the first attempt in the log.
	sent := 0
	for _, e := range eng.Log.Events() {
		if e.Kind == EvCommandSent && e.Attempt > 1 {
			sent++
		}
	}
	if sent != 0 {
		t.Errorf("%d retry attempts recorded for permanent errors", sent)
	}
}

// TestEngineCanceledContextSingleAttempt: a canceled campaign must not burn
// MaxAttempts with RetryDelay sleeps.
func TestEngineCanceledContextSingleAttempt(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	m := NewBase("dev", "test", "")
	m.Register(ActionInfo{Name: "work"}, func(ctx context.Context, _ Args) (Result, error) {
		return nil, ctx.Err()
	})
	reg.Add(m)
	eng := NewEngine(reg, clock, NewEventLog(clock))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := clock.Now()
	rec, err := eng.RunWorkflow(ctx, &WorkflowSpec{
		Name: "wf_cancel", Steps: []Step{{Name: "s", Module: "dev", Action: "work"}},
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rec.Steps) != 0 {
		// RunWorkflow checks ctx before the first step, so nothing ran.
		t.Fatalf("steps ran under canceled context: %+v", rec.Steps)
	}
	if dur := clock.Now().Sub(start); dur != 0 {
		t.Errorf("canceled run consumed %v of virtual time", dur)
	}
}

// TestEngineCancelDuringRetryStops: cancellation between attempts stops the
// retry loop at the next attempt boundary instead of burning the budget.
func TestEngineCancelDuringRetryStops(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	m := NewBase("dev", "test", "")
	m.Register(ActionInfo{Name: "work"}, func(context.Context, Args) (Result, error) {
		cancel() // the failure and the cancellation race the retry loop
		return nil, errors.New("transient")
	})
	reg.Add(m)
	eng := NewEngine(reg, clock, NewEventLog(clock))
	eng.MaxAttempts = 5

	rec, err := eng.RunWorkflow(ctx, &WorkflowSpec{
		Name: "wf_cancel_retry", Steps: []Step{{Name: "s", Module: "dev", Action: "work"}},
	}, nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	if got := rec.Steps[0].Attempts; got != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled after first failure)", got)
	}
	// Exactly one retry sleep may have elapsed before the ctx check.
	if dur := clock.Now().Sub(sim.Epoch); dur > eng.RetryDelay {
		t.Fatalf("retry loop kept sleeping after cancel: %v elapsed", dur)
	}
}

func TestRunRecordFilenameSanitized(t *testing.T) {
	dir := t.TempDir()
	rec := &RunRecord{Workflow: "../../evil/wf name", Start: time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)}
	path, err := rec.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(path, dir) {
		t.Fatalf("record escaped dir: %s", path)
	}
	rel := strings.TrimPrefix(path, dir)
	if strings.Contains(strings.TrimPrefix(rel, "/"), "/") {
		t.Fatalf("separator survived sanitization: %s", path)
	}
	empty := &RunRecord{Workflow: ""}
	p, err := empty.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p, "workflow_") {
		t.Fatalf("empty workflow name produced %s", p)
	}
}
