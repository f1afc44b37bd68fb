package portal

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The tests here are the -race workout for the streaming hub: concurrent
// publishers, subscribers joining and leaving, deliberate slow-consumer
// evictions, and a hub close racing all of it. Beyond race-detector
// cleanliness they assert the hub's two liveness guarantees:
//
//  1. the hub never blocks on a subscriber — a stalled watcher is evicted
//     while everyone else keeps receiving;
//  2. every subscriber's view is a gap-free, duplicate-free slice of the
//     global sequence, no matter when it joined or how it left.

// TestRaceStreamHub hammers one hub with publishers, churning subscribers,
// and keyed retries, then closes it mid-flight: once the publishers finish,
// while the subscribers are still reading.
func TestRaceStreamHub(t *testing.T) {
	h, err := OpenHub(HubOptions{SubscriberBuffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	const (
		publishers  = 4
		batches     = 50
		subscribers = 6
	)
	var pubs, subs sync.WaitGroup

	for p := 0; p < publishers; p++ {
		pubs.Add(1)
		go func(p int) {
			defer pubs.Done()
			for b := 0; b < batches; b++ {
				evs := []StreamEvent{
					benchEvent(fmt.Sprintf("exp-%d", p), b*2),
					benchEvent(fmt.Sprintf("exp-%d", p), b*2+1),
				}
				// Half the batches go through the idempotency path, each
				// key published twice to exercise dedupe under contention.
				if b%2 == 0 {
					key := fmt.Sprintf("p%d-b%d", p, b)
					if _, err := h.PublishEventsKeyed(key, evs); err != nil && !errors.Is(err, ErrStreamClosed) {
						t.Error(err)
						return
					}
					if _, err := h.PublishEventsKeyed(key, evs); err != nil && !errors.Is(err, ErrStreamClosed) {
						t.Error(err)
						return
					}
				} else if _, err := h.PublishEventsKeyed("", evs); err != nil && !errors.Is(err, ErrStreamClosed) {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	// Subscribers churn: subscribe, consume a while asserting monotone
	// gap-free seqs, cancel, resubscribe from the cursor.
	for s := 0; s < subscribers; s++ {
		subs.Add(1)
		go func(s int) {
			defer subs.Done()
			cursor := ""
			for round := 0; round < 4; round++ {
				sub, err := h.Subscribe(SubscribeOptions{Cursor: cursor})
				if err != nil {
					if errors.Is(err, ErrStreamClosed) || errors.Is(err, ErrCursorTruncated) {
						return
					}
					t.Error(err)
					return
				}
				last := int64(-1)
				if cursor != "" {
					if last, err = decodeStreamCursor(cursor); err != nil {
						t.Error(err)
						sub.Cancel()
						return
					}
				}
				for i := 0; i < 40; i++ {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					ev, err := sub.Next(ctx)
					cancel()
					if err != nil {
						break // closed, evicted, or idle — all fine here
					}
					if last >= 0 && ev.Seq != last+1 {
						t.Errorf("subscriber %d: seq %d after %d (gap or dup)", s, ev.Seq, last)
						sub.Cancel()
						return
					}
					last = ev.Seq
				}
				cursor = sub.Cursor()
				sub.Cancel()
			}
		}(s)
	}
	pubs.Wait()
	if err := h.Close(); err != nil {
		t.Error(err)
	}
	subs.Wait()
}

// TestRaceStreamStalledSubscriber pins one subscriber that never reads while
// publishers keep going: the stalled one must be evicted promptly and the
// healthy one must keep receiving — the hub must never stall on the laggard.
func TestRaceStreamStalledSubscriber(t *testing.T) {
	h, err := OpenHub(HubOptions{SubscriberBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	stalled, err := h.Subscribe(SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const total = 500
	// The publish loop below runs flat out, so "healthy" here means "has
	// room": give this subscriber a buffer that absorbs the whole burst.
	// The stalled one keeps the tiny default and must be the only eviction.
	healthy, err := h.Subscribe(SubscribeOptions{Buffer: total + 8})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Cancel()
	var consumed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		last := int64(0)
		for consumed.Load() < total {
			ev, err := healthy.Next(ctx)
			if err != nil {
				t.Errorf("healthy subscriber died: %v", err)
				return
			}
			if ev.Seq != last+1 {
				t.Errorf("healthy subscriber saw seq %d after %d", ev.Seq, last)
				return
			}
			last = ev.Seq
			consumed.Add(1)
		}
	}()

	start := time.Now()
	for i := 0; i < total; i++ {
		mustPublish(t, h, benchEvent("a", i))
	}
	// Publishing 500 events past an unread subscriber finished — that alone
	// proves the hub didn't block on it. Sanity-check the rest.
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("publish loop took %v; hub stalled on the dead subscriber", elapsed)
	}
	<-done
	if h.subscribers() != 1 {
		t.Fatalf("%d subscribers left, want 1 (stalled one evicted)", h.subscribers())
	}
	// The stalled subscriber's verdict, after its buffered prefix drains.
	for {
		_, err := stalled.Next(context.Background())
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrSlowSubscriber) {
			t.Fatalf("stalled verdict = %v, want ErrSlowSubscriber", err)
		}
		break
	}
}

// TestRaceStreamDurableWithCompaction shares one data directory between a
// durable hub (events/ subdir) and a compacting record store, then runs
// both workloads plus live subscriptions at once — the layout cmd/portal
// -data produces. Subscribing while the record store compacts must neither
// race nor perturb either log.
func TestRaceStreamDurableWithCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreWith(dir, Options{AutoCompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	smallSegments(t, 1<<12)
	h, err := OpenHub(HubOptions{Dir: filepath.Join(dir, "events")})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var wg sync.WaitGroup
	var stop atomic.Bool

	// Record-store side: ingest enough to keep AutoCompact busy.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t0 := time.Date(2023, 8, 16, 9, 0, 0, 0, time.UTC)
		for b := 0; b < 40; b++ {
			recs := make([]Record, 4)
			for i := range recs {
				recs[i] = Record{Experiment: "exp", Run: b, Time: t0.Add(time.Duration(b) * time.Minute)}
			}
			if _, err := s.IngestBatchKeyed("", recs); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Hub side: two publishers with segment rotation in play.
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; b < 60; b++ {
				if _, err := h.PublishEventsKeyed("", []StreamEvent{benchEvent(fmt.Sprintf("exp-%d", p), b)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}

	// Subscribe-during-compaction probe: keep opening subscriptions (with
	// backfill from the start of the retained window) while both logs churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			sub, err := h.Subscribe(SubscribeOptions{Cursor: StreamStart})
			if err != nil {
				t.Error(err)
				return
			}
			last := int64(0)
			for i := 0; i < 20; i++ {
				ev, ok, err := sub.tryNext()
				if err != nil || !ok {
					break
				}
				if ev.Seq != last+1 {
					t.Errorf("backfill gap: seq %d after %d", ev.Seq, last)
					sub.Cancel()
					return
				}
				last = ev.Seq
			}
			sub.Cancel()
		}
	}()

	// And explicit compactions on top of the automatic ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
		stop.Store(true)
	}()

	wg.Wait()
	stop.Store(true)
	if h.LastSeq() != 120 {
		t.Fatalf("hub LastSeq = %d, want 120", h.LastSeq())
	}

	// Both logs must replay cleanly after the contention.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenHub(HubOptions{Dir: filepath.Join(dir, "events")})
	if err != nil {
		t.Fatalf("reopen after contention: %v", err)
	}
	defer h2.Close()
	if h2.LastSeq() != 120 {
		t.Fatalf("replayed LastSeq = %d, want 120", h2.LastSeq())
	}
}

// TestRaceStreamCloseDuringTraffic closes the hub while publishers and
// subscribers are mid-flight; everyone must exit with ErrStreamClosed (or a
// clean result), never deadlock.
func TestRaceStreamCloseDuringTraffic(t *testing.T) {
	h, err := OpenHub(HubOptions{SubscriberBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 3; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for b := 0; ; b++ {
				if _, err := h.PublishEventsKeyed("", []StreamEvent{benchEvent(fmt.Sprintf("exp-%d", p), b)}); err != nil {
					if !errors.Is(err, ErrStreamClosed) {
						t.Error(err)
					}
					return
				}
			}
		}(p)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sub, err := h.Subscribe(SubscribeOptions{})
				if err != nil {
					if !errors.Is(err, ErrStreamClosed) {
						t.Error(err)
					}
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				for i := 0; i < 10; i++ {
					if _, err := sub.Next(ctx); err != nil {
						break
					}
				}
				cancel()
				sub.Cancel()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	wg.Wait()
}
