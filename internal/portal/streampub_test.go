package portal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// scriptedSink is a KeyedEventSink that answers its calls from a script of
// errors (calls past the script succeed), recording every call's key and
// the events of every call that succeeded. With dest set, each call is
// delivered there before the scripted answer, so a scripted error is a
// lost ack rather than a lost batch.
type scriptedSink struct {
	dest KeyedEventSink

	mu       sync.Mutex
	script   []error
	keys     []string
	accepted []StreamEvent
}

func (s *scriptedSink) PublishEvents(evs []StreamEvent) (string, error) {
	return s.PublishEventsKeyed("", evs)
}

func (s *scriptedSink) PublishEventsKeyed(key string, evs []StreamEvent) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys = append(s.keys, key)
	var err error
	if len(s.script) > 0 {
		err, s.script = s.script[0], s.script[1:]
	}
	if s.dest != nil {
		if _, derr := s.dest.PublishEventsKeyed(key, evs); derr != nil {
			return "", derr
		}
	}
	if err == nil {
		s.accepted = append(s.accepted, evs...)
	}
	return "", err
}

// snapshot returns copies of the recorded keys and accepted events.
func (s *scriptedSink) snapshot() (keys []string, accepted []StreamEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.keys...), append([]StreamEvent(nil), s.accepted...)
}

// fastPublisher is a publisher whose loop and Close retries run at 1ms.
func fastPublisher(sink KeyedEventSink, opts PublisherOptions) *EventPublisher {
	opts.FlushInterval = time.Millisecond
	opts.CloseRetryDelay = time.Millisecond
	return NewEventPublisher(sink, opts)
}

// TestEventPublisherMixedErrorTypes: the sink's failures need not share a
// concrete type — a Client returns an *errors.errorString for a non-200
// answer and a wrapped error for a transport failure. Two failures of
// different types, then a success, must deliver the event under one key
// instead of crashing the publisher goroutine.
func TestEventPublisherMixedErrorTypes(t *testing.T) {
	sink := &scriptedSink{script: []error{
		errors.New("portal: publish events: HTTP 503: unavailable"),
		fmt.Errorf("portal: publish events: %w", errors.New("connection refused")),
	}}
	pub := fastPublisher(sink, PublisherOptions{})
	pub.PublishEvents([]StreamEvent{{Kind: "step_end", SrcSeq: 0}})
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	keys, _ := sink.snapshot()
	if len(keys) != 3 {
		t.Fatalf("sink saw %d calls (%v), want 3", len(keys), keys)
	}
	if keys[0] == "" || keys[1] != keys[0] || keys[2] != keys[0] {
		t.Fatalf("retries changed the batch key: %v", keys)
	}
	if pub.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", pub.Dropped())
	}
}

// TestEventPublisherLostAckDeduped: a batch the hub committed but whose
// ack was lost is resent under the same key, and the hub answers the retry
// from its dedupe memory instead of appending it twice.
func TestEventPublisherLostAckDeduped(t *testing.T) {
	hub, err := OpenHub(HubOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sink := &scriptedSink{dest: hub, script: []error{errors.New("ack lost")}}
	pub := fastPublisher(sink, PublisherOptions{})
	pub.PublishEvents([]StreamEvent{{Experiment: "e", Kind: "a"}, {Experiment: "e", Kind: "b"}})
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	keys, _ := sink.snapshot()
	if len(keys) != 2 || keys[0] != keys[1] {
		t.Fatalf("keys = %v, want one batch sent twice under one key", keys)
	}
	if got := hub.LastSeq(); got != 2 {
		t.Fatalf("hub LastSeq = %d, want 2 (retry appended a second copy)", got)
	}
	if pub.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", pub.Dropped())
	}
}

// TestEventPublisherDropsRejectedBatch: a batch the sink rejects as invalid
// is counted as dropped, and the batch queued behind it is still
// delivered.
func TestEventPublisherDropsRejectedBatch(t *testing.T) {
	sink := &scriptedSink{script: []error{fmt.Errorf("%w: bad event", ErrInvalid)}}
	pub := fastPublisher(sink, PublisherOptions{MaxBatch: 1})
	pub.PublishEvents([]StreamEvent{{Kind: "poison"}, {Kind: "good"}})
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if pub.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", pub.Dropped())
	}
	_, got := sink.snapshot()
	if len(got) != 1 || got[0].Kind != "good" {
		t.Fatalf("delivered %+v, want only the good event", got)
	}
}

// TestEventPublisherOverflowCounted: publishes past the pending bound are
// dropped and counted, and everything within it is delivered at Close.
func TestEventPublisherOverflowCounted(t *testing.T) {
	const extra = 10
	sink := &scriptedSink{}
	// One hour between ticks and a batch bound above the queue bound: the
	// loop never flushes before Close, so the queue fills.
	pub := NewEventPublisher(sink, PublisherOptions{MaxBatch: 2 * maxPendingEvents, FlushInterval: time.Hour})
	pub.PublishEvents(make([]StreamEvent, maxPendingEvents+extra))
	if pub.Dropped() != extra {
		t.Fatalf("Dropped = %d, want %d", pub.Dropped(), extra)
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, got := sink.snapshot(); len(got) != maxPendingEvents {
		t.Fatalf("delivered %d events, want %d", len(got), maxPendingEvents)
	}
}

// TestEventPublisherAfterClose: a publish after Close is counted as
// dropped, and a second Close is harmless.
func TestEventPublisherAfterClose(t *testing.T) {
	sink := &scriptedSink{}
	pub := fastPublisher(sink, PublisherOptions{})
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	pub.PublishEvents([]StreamEvent{{Kind: "late"}})
	if pub.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", pub.Dropped())
	}
	if err := pub.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if keys, _ := sink.snapshot(); len(keys) != 0 {
		t.Fatalf("sink saw %d calls, want 0", len(keys))
	}
}

// TestEventPublisherStampsCopy: PublishEvents stamps PubNanos on the queued
// events, never on the caller's slice, and keeps a stamp already set.
func TestEventPublisherStampsCopy(t *testing.T) {
	sink := &scriptedSink{}
	pub := fastPublisher(sink, PublisherOptions{})
	evs := []StreamEvent{{Kind: "fresh"}, {Kind: "stamped", PubNanos: 42}}
	pub.PublishEvents(evs)
	if err := pub.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if evs[0].PubNanos != 0 || evs[1].PubNanos != 42 {
		t.Fatalf("caller's slice mutated: %+v", evs)
	}
	_, got := sink.snapshot()
	if len(got) != 2 || got[0].PubNanos == 0 || got[1].PubNanos != 42 {
		t.Fatalf("delivered %+v, want the first stamped and the second kept at 42", got)
	}
}
