package portal

import (
	"context"
	"errors"
	"testing"
	"time"
)

// scriptedBatcher is an Ingestor over a Store that answers its
// calls from a script of errors (calls past the script succeed), running
// onCall, when set, at the start of every call.
type scriptedBatcher struct {
	*Store
	script []error
	calls  int
	onCall func()
}

func (s *scriptedBatcher) IngestBatchKeyed(key string, recs []Record) ([]string, error) {
	s.calls++
	if s.onCall != nil {
		s.onCall()
	}
	if len(s.script) > 0 {
		err := s.script[0]
		s.script = s.script[1:]
		if err != nil {
			return nil, err
		}
	}
	return s.Store.IngestBatchKeyed(key, recs)
}

// TestBufferDeliverStopsWhenCanceled: once ctx is done, Deliver makes no
// further attempt and does not wait out the retry pause — whether ctx was
// canceled before the call or during the first attempt. The records stay
// buffered.
func TestBufferDeliverStopsWhenCanceled(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cancelEarly bool
	}{{"before", true}, {"during", false}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			down := errors.New("portal down")
			dest := &scriptedBatcher{Store: NewStore(), script: []error{down, down, down}, onCall: cancel}
			if tc.cancelEarly {
				cancel()
			}
			buf := NewBuffer(dest)
			for i := 0; i < 3; i++ {
				buf.Add(Record{Experiment: "cancel", Run: i, Time: time.Now()})
			}
			start := time.Now()
			ids, err := buf.Deliver(ctx)
			if elapsed := time.Since(start); elapsed >= deliverPause/2 {
				t.Fatalf("Deliver took %v after cancellation, want a prompt return", elapsed)
			}
			if !errors.Is(err, down) || ids != nil {
				t.Fatalf("Deliver = %v, %v; want the destination's error", ids, err)
			}
			if dest.calls != 1 {
				t.Fatalf("destination called %d times, want 1", dest.calls)
			}
			if n := buffered(buf); n != 3 || dest.Len() != 0 {
				t.Fatalf("buffer=%d store=%d, want 3 buffered, 0 stored", n, dest.Len())
			}
		})
	}
}

// TestBufferFlushReturnsIDsAcrossFailures: when the retried batch lands but
// the batch queued behind it fails, the next successful Flush returns the
// IDs of both, in buffered order — an acknowledged batch's IDs are not
// lost with the failed pass.
func TestBufferFlushReturnsIDsAcrossFailures(t *testing.T) {
	down := errors.New("portal down")
	dest := &scriptedBatcher{Store: NewStore(), script: []error{down, nil, down}}
	buf := NewBuffer(dest)
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	ingest := func(from, to int) {
		for i := from; i < to; i++ {
			buf.Add(Record{Experiment: "ids", Run: i, Time: t0.Add(time.Duration(i) * time.Minute)})
		}
	}
	ingest(0, 3)
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("first flush should fail")
	}
	ingest(3, 5)
	if _, err := buf.box.flush(); err == nil {
		t.Fatal("second flush should fail on the queued batch")
	}
	ids, err := buf.box.flush()
	if err != nil || len(ids) != 5 {
		t.Fatalf("third flush = %v, %v; want 5 ids", ids, err)
	}
	for i, id := range ids {
		rec, err := dest.Get(id)
		if err != nil || rec.Run != i {
			t.Fatalf("id %d = %s -> %+v, %v; want run %d", i, id, rec, err, i)
		}
	}
	if again, err := buf.box.flush(); err != nil || again != nil {
		t.Fatalf("empty re-flush = %v, %v", again, err)
	}
}
