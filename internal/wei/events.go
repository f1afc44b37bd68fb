package wei

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"colormatch/internal/sim"
)

// EventKind classifies event-log entries. The event log is the ground truth
// from which the paper's proposed SDL metrics (TWH, CCWH, synthesis time,
// transfer time, time per color) are computed.
type EventKind string

// Event kinds recorded by the engine and application.
const (
	EvWorkflowStart EventKind = "workflow_start"
	EvWorkflowEnd   EventKind = "workflow_end"
	EvStepStart     EventKind = "step_start"
	EvStepEnd       EventKind = "step_end"
	EvCommandSent   EventKind = "command_sent"
	EvCommandDone   EventKind = "command_completed"
	EvCommandFailed EventKind = "command_failed"
	// EvGateWait records time an application loop spent blocked on a shared-
	// resource gate (the camera mount) before its workflow could start. The
	// wait rides QueueWait with Module naming the gated resource, so module
	// queue-wait breakdowns include gate contention alongside lease waits.
	EvGateWait   EventKind = "gate_wait"
	EvCompute    EventKind = "compute"
	EvPublish    EventKind = "publish"
	EvHumanInput EventKind = "human_input"
	EvNote       EventKind = "note"
)

// Event is one entry in the experiment's event log.
type Event struct {
	Seq      int           `json:"seq"`
	Time     time.Time     `json:"time"`
	Kind     EventKind     `json:"kind"`
	Workflow string        `json:"workflow,omitempty"`
	Step     string        `json:"step,omitempty"`
	Module   string        `json:"module,omitempty"`
	Action   string        `json:"action,omitempty"`
	Attempt  int           `json:"attempt,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`
	// QueueWait is time spent waiting for the target module's lease before
	// the command was sent (EvCommandSent: this attempt's wait; EvStepEnd:
	// the step's total across attempts). Zero when the module was free or
	// the engine runs without a Reservations layer.
	QueueWait time.Duration `json:"queue_wait,omitempty"`
	Err       string        `json:"err,omitempty"`
	Note      string        `json:"note,omitempty"`
}

// EventLog is an append-only, concurrency-safe event record stamped with the
// experiment clock (virtual or real).
type EventLog struct {
	clock sim.Clock

	mu     sync.Mutex
	events []Event
	sink   func(Event)
}

// NewEventLog returns an event log using the given clock.
func NewEventLog(clock sim.Clock) *EventLog {
	return &EventLog{clock: clock}
}

// SetSink registers fn to receive every subsequently appended event. The
// sink runs synchronously under the log's lock, after the event is stamped
// and recorded, so it observes events in exactly their sequence order with
// no gaps — the property live streaming resumes depend on. fn must
// therefore be fast and non-blocking (hand off to a queue, as
// portal.EventPublisher.PublishEvents does) and must not call back into the
// log. A nil fn detaches the sink.
func (l *EventLog) SetSink(fn func(Event)) {
	l.mu.Lock()
	l.sink = fn
	l.mu.Unlock()
}

// Append records an event, stamping sequence number and time.
func (l *EventLog) Append(e Event) {
	l.mu.Lock()
	e.Seq = len(l.events)
	e.Time = l.clock.Now()
	l.events = append(l.events, e)
	if l.sink != nil {
		l.sink(e)
	}
	l.mu.Unlock()
}

// Events returns a copy of the log.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of events recorded.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// WriteJSON streams the log as JSON lines.
func (l *EventLog) WriteJSON(w io.Writer) error {
	for _, e := range l.Events() {
		data, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("wei: encode event %d: %w", e.Seq, err)
		}
		if _, err := w.Write(append(data, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadEventsJSON parses a JSON-lines event log written by WriteJSON.
func ReadEventsJSON(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("wei: decode event log: %w", err)
		}
		out = append(out, e)
	}
}
