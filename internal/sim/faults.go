package sim

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected is the sentinel wrapped by all injected failures, so tests and
// retry logic can distinguish injected faults from programming errors.
var ErrInjected = errors.New("injected fault")

// FaultKind classifies where in the command path an injected failure occurs.
// The paper observes that "most failures occur during reception and
// processing of commands", which motivates its CCWH metric; the injector
// reproduces those failure classes so resiliency experiments are meaningful.
type FaultKind int

const (
	// FaultReceive simulates a command that never reaches the instrument
	// (dropped or garbled request). The action does not run.
	FaultReceive FaultKind = iota
	// FaultProcess simulates an instrument that accepts a command but fails
	// while processing it (firmware error, motion fault). The action runs
	// partially and reports failure.
	FaultProcess
	// FaultReport simulates a completed action whose success report is lost;
	// the control system sees a failure even though the work happened.
	FaultReport
)

// String returns the fault class name.
func (k FaultKind) String() string {
	switch k {
	case FaultReceive:
		return "receive"
	case FaultProcess:
		return "process"
	case FaultReport:
		return "report"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultError is the error returned for an injected fault.
type FaultError struct {
	Kind   FaultKind
	Module string
	Action string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("%s fault on %s.%s: %v", e.Kind, e.Module, e.Action, ErrInjected)
}

// Unwrap lets errors.Is(err, ErrInjected) succeed.
//
//lint:ignore testonly errors.Is and errors.As call Unwrap through an interface, so no caller names it
func (e *FaultError) Unwrap() error { return ErrInjected }

// FaultPlan configures an injector. Probabilities are per command attempt.
type FaultPlan struct {
	PReceive float64 // probability a command is lost before reception
	PProcess float64 // probability an accepted command fails mid-action
	PReport  float64 // probability a completed command's report is lost
}

// Injector decides, per command attempt, whether to inject a failure.
// A nil *Injector injects nothing, so components can hold one unconditionally.
type Injector struct {
	mu    sync.Mutex
	plan  FaultPlan
	rng   *RNG
	count map[FaultKind]int
}

// NewInjector returns an injector drawing from rng. rng must not be nil
// unless the plan is all-zero.
func NewInjector(plan FaultPlan, rng *RNG) *Injector {
	return &Injector{plan: plan, rng: rng, count: make(map[FaultKind]int)}
}

// Check returns a non-nil *FaultError if a fault should be injected for this
// command attempt, else nil. Safe on a nil receiver.
func (in *Injector) Check(module, action string) *FaultError {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.rng == nil {
		return nil
	}
	switch {
	case in.rng.Bool(in.plan.PReceive):
		in.count[FaultReceive]++
		return &FaultError{Kind: FaultReceive, Module: module, Action: action}
	case in.rng.Bool(in.plan.PProcess):
		in.count[FaultProcess]++
		return &FaultError{Kind: FaultProcess, Module: module, Action: action}
	case in.rng.Bool(in.plan.PReport):
		in.count[FaultReport]++
		return &FaultError{Kind: FaultReport, Module: module, Action: action}
	}
	return nil
}

// injected reports how many faults of each kind have been injected.
func (in *Injector) injected() map[FaultKind]int {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[FaultKind]int, len(in.count))
	for k, v := range in.count {
		out[k] = v
	}
	return out
}

// Total reports the total number of injected faults.
func (in *Injector) Total() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, v := range in.count {
		n += v
	}
	return n
}
