package portal

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests here are the -race workout for the copy-on-write read path:
// searches, summaries, gets, batch ingests, and compactions all hammering
// one store at once. Beyond being race-detector clean, they assert the two
// user-visible guarantees of snapshot publication:
//
//  1. atomicity — no read ever observes part of a batch: every batch
//     shares one timestamp, so a time-window search must count either the
//     whole batch or none of it;
//  2. cursor stability — a pagination walk started before (or during)
//     ingest and compaction never repeats or reorders a record.

// raceWorkout runs the mixed workload against s; when compact is true a
// dedicated goroutine keeps compacting throughout.
func raceWorkout(t *testing.T, s *Store, compact bool) {
	t.Helper()
	const (
		writers   = 4
		batches   = 25
		batchSize = 8
	)
	t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	var stop atomic.Bool

	// Writers: each batch gets one unique timestamp shared by all its
	// records, so readers can probe batch atomicity through time windows.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				ts := t0.Add(time.Duration(w*batches+b) * time.Minute)
				recs := make([]Record, batchSize)
				for i := range recs {
					recs[i] = Record{
						Experiment: fmt.Sprintf("exp-%d", w),
						Run:        b,
						Time:       ts,
						Fields:     map[string]any{"samples": 1, "best_score": float64(i)},
					}
				}
				if _, err := s.IngestBatchKeyed("", recs); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	// Atomicity probes: a window holding exactly one batch's timestamp must
	// contain 0 or batchSize records — anything else is a half-published
	// batch leaking into a snapshot.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				ts := t0.Add(time.Duration(i%(writers*batches)) * time.Minute)
				got := s.Search(Query{After: ts, Before: ts.Add(time.Minute)})
				if len(got) != 0 && len(got) != batchSize {
					t.Errorf("window at %s holds %d records, want 0 or %d", ts, len(got), batchSize)
					return
				}
				for _, rec := range got {
					if _, err := s.Get(rec.ID); err != nil {
						t.Errorf("visible record %s not gettable: %v", rec.ID, err)
						return
					}
				}
			}
		}(r)
	}

	// Summary readers: never error for an experiment already seen, and
	// internal consistency (records = samples) holds per snapshot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, exp := range s.Experiments() {
				sum, err := s.Summarize(exp)
				if err != nil {
					t.Errorf("summary %s: %v", exp, err)
					return
				}
				if sum.Records != sum.Samples {
					t.Errorf("summary %s torn: %d records, %d samples", exp, sum.Records, sum.Samples)
					return
				}
			}
		}
	}()

	// Cursor walkers: page through everything repeatedly; a walk must never
	// repeat a record, whatever lands or compacts mid-walk.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				seen := make(map[string]bool)
				q := Query{Limit: 7}
				for {
					page, err := s.SearchPage(q)
					if err != nil {
						t.Errorf("page: %v", err)
						return
					}
					for _, rec := range page.Records {
						if seen[rec.ID] {
							t.Errorf("cursor walk repeated %s", rec.ID)
							return
						}
						seen[rec.ID] = true
					}
					if page.Next == "" {
						break
					}
					q.Cursor = page.Next
				}
			}
		}()
	}

	done := make(chan struct{})
	if compact {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := s.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}()
	}

	// Let readers overlap the full write phase, then wind down.
	waitWriters := make(chan struct{})
	go func() {
		defer close(waitWriters)
		// The writer goroutines are the first `writers` Adds; reuse wg via
		// polling the store length instead of a second WaitGroup.
		for s.Len() < writers*batches*batchSize {
			time.Sleep(time.Millisecond)
		}
	}()
	<-waitWriters
	stop.Store(true)
	close(done)
	wg.Wait()

	if got := s.Len(); got != writers*batches*batchSize {
		t.Fatalf("Len = %d, want %d", got, writers*batches*batchSize)
	}
}

// TestRaceMemoryStore: the workout against the in-memory store.
func TestRaceMemoryStore(t *testing.T) {
	raceWorkout(t, NewStore(), false)
}

// TestRaceDiskStoreWithCompaction: the workout against a disk store with
// small segments, explicit concurrent compaction, and auto-compaction armed
// — ingest, search, summary, get, pagination, and compaction all at once.
func TestRaceDiskStoreWithCompaction(t *testing.T) {
	smallSegments(t, 1024)
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{AutoCompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	raceWorkout(t, s, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything the workout committed survives a reopen (with whatever mix
	// of snapshot and tail segments compaction left behind).
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != s.Len() {
		t.Fatalf("reopened Len = %d, want %d", reopened.Len(), s.Len())
	}
	for i := 0; i < 4; i++ {
		exp := fmt.Sprintf("exp-%d", i)
		sum, err := reopened.Summarize(exp)
		if err != nil || sum.Records != 200 {
			t.Fatalf("summary %s after reopen = %+v, %v", exp, sum, err)
		}
	}
}
