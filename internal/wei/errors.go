package wei

import (
	"context"
	"errors"
	"fmt"
)

// ErrClass classifies a command failure for retry and rescheduling policy.
// The engine retries only ClassRetryable failures in place; the fleet
// scheduler uses the class of a step's final error to decide whether to
// retire the workcell that produced it (ClassWorkcellDown), fail the
// campaign outright (ClassPermanent), or apply its sick-cell heuristics
// (retries exhausted on a ClassRetryable fault).
type ErrClass int

const (
	// ClassRetryable marks a transient failure: the same command may succeed
	// on the next attempt (dropped command, instrument glitch, HTTP 5xx).
	// This is the default for unrecognized errors — the paper's workcell
	// recovers most failures by simple retry, so unknown errors get the
	// benefit of the doubt.
	ClassRetryable ErrClass = iota
	// ClassPermanent marks a failure retrying cannot fix: a canceled
	// context, an unknown module or action, a rejected request. The command
	// (and its step) fails on the first attempt.
	ClassPermanent
	// ClassWorkcellDown marks a failure of the workcell itself rather than
	// the command: the module server is unreachable, hung past its request
	// timeout, or answering garbage. The cell should leave the pool and its
	// campaign should be rescheduled onto a healthy one.
	ClassWorkcellDown
)

// String returns the class name used on the wire and in logs.
func (c ErrClass) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassPermanent:
		return "permanent"
	case ClassWorkcellDown:
		return "workcell_down"
	default:
		return fmt.Sprintf("ErrClass(%d)", int(c))
	}
}

// parseErrClass maps a wire string back to a class, defaulting to retryable
// so responses from older servers (no class field) keep today's behavior.
func parseErrClass(s string) ErrClass {
	switch s {
	case ClassPermanent.String():
		return ClassPermanent
	case ClassWorkcellDown.String():
		return ClassWorkcellDown
	default:
		return ClassRetryable
	}
}

// TransportError reports a command that could not be exchanged with a module
// server: the connection failed, the request timed out with the caller's
// context still live, or the response was undecodable. It classifies as
// ClassWorkcellDown — the cell, not the command, is the problem.
type TransportError struct {
	// Module is the module addressed, when known.
	Module string
	// Op is the transport operation that failed: "act", "state", "about",
	// "health", "reset", or "decode" for an unparseable response.
	Op  string
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	if e.Module != "" {
		return fmt.Sprintf("wei: transport %s %s: %v", e.Op, e.Module, e.Err)
	}
	return fmt.Sprintf("wei: transport %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying network or decode error.
//
//lint:ignore testonly errors.Is and errors.As call Unwrap through an interface, so no caller names it
func (e *TransportError) Unwrap() error { return e.Err }

// StatusError reports a non-200 HTTP response from a module server. 5xx
// classifies as retryable (the server is alive but struggling); everything
// else — 404 for an unknown module or endpoint, 400 for a rejected request —
// is permanent.
type StatusError struct {
	Module string
	Op     string
	Code   int
	Body   string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("wei: %s %s: HTTP %d: %s", e.Op, e.Module, e.Code, e.Body)
}

// Class returns the status code's classification.
func (e *StatusError) Class() ErrClass {
	if e.Code >= 500 {
		return ClassRetryable
	}
	return ClassPermanent
}

// RemoteActionError reports an action the server executed and the module
// failed. The server classifies its own error (it still has the typed value)
// and the class rides the response, so a remote unknown-action failure stays
// permanent on the client side even though the error type itself cannot
// cross the wire.
type RemoteActionError struct {
	Module string
	Action string
	Msg    string
	// ErrClass is the server-side classification of the module error.
	ErrClass ErrClass
}

// Error implements error.
func (e *RemoteActionError) Error() string {
	return fmt.Sprintf("wei: %s.%s: %s", e.Module, e.Action, e.Msg)
}

// Classify maps err to its retry class. It inspects the whole wrap chain, so
// classifying a step error wrapped in ErrStepFailed finds the root cause.
func Classify(err error) ErrClass {
	if err == nil {
		return ClassRetryable
	}
	var te *TransportError
	if errors.As(err, &te) {
		return ClassWorkcellDown
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Class()
	}
	var re *RemoteActionError
	if errors.As(err, &re) {
		return re.ErrClass
	}
	// Context errors checked after TransportError: a request that timed out
	// against a dead server wraps the deadline inside a TransportError, while
	// a bare context error means the caller canceled the work.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassPermanent
	}
	var nm *ErrNoModule
	if errors.As(err, &nm) {
		return ClassPermanent
	}
	var ua *ErrUnknownAction
	if errors.As(err, &ua) {
		return ClassPermanent
	}
	return ClassRetryable
}
