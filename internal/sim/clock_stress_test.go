package sim

import (
	"sync"
	"testing"
	"time"
)

// TestSimClockConcurrentSleeperStress is the invariant module-lease
// pipelining leans on: dozens of registered workers hammering one virtual
// clock with randomized sleep durations must (a) never deadlock, (b) never
// observe time move backwards, (c) always wake at or after their own
// deadline, and (d) finish with the clock at the longest per-worker total —
// concurrent work overlaps in virtual time. Run under -race in CI.
func TestSimClockConcurrentSleeperStress(t *testing.T) {
	const (
		workers = 32
		rounds  = 40
	)
	c := NewSimClockAt(Epoch)
	rng := NewRNG(2023)
	// Pre-draw each worker's sleep schedule so the RNG is not shared across
	// goroutines and the expected end time is known up front.
	schedules := make([][]time.Duration, workers)
	var longest time.Duration
	for w := range schedules {
		r := rng.Derive(string(rune('a' + w)))
		var total time.Duration
		schedules[w] = make([]time.Duration, rounds)
		for i := range schedules[w] {
			// 1ms..10s of virtual time, with occasional zero/negative sleeps
			// that must be no-ops.
			switch i % 10 {
			case 7:
				schedules[w][i] = 0
			case 8:
				schedules[w][i] = -time.Second
			default:
				d := time.Duration(r.Intn(int(10*time.Second))) + time.Millisecond
				schedules[w][i] = d
				total += d
			}
		}
		if total > longest {
			longest = total
		}
	}

	c.AddWorker(workers)
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer c.DoneWorker()
			for _, d := range schedules[w] {
				before := c.Now()
				c.Sleep(d)
				after := c.Now()
				if after.Before(before) {
					errs <- "time moved backwards"
					return
				}
				if d > 0 && after.Before(before.Add(d)) {
					errs <- "woke before deadline"
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run deadlocked")
	}
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	// All workers have exited; the clock must sit exactly at the longest
	// worker's total — overlapped, not serialized (the serialized total
	// would be ~workers times larger).
	if got := c.Now().Sub(Epoch); got != longest {
		t.Fatalf("clock advanced %v, want longest schedule %v", got, longest)
	}
}

// TestSimClockWorkersJoiningAndLeaving churns worker registration while
// sleeps are in flight — the lane-scheduler pattern, where a lane registers
// only while it runs a campaign and deregisters while blocked on the queue
// or on a module lease.
func TestSimClockWorkersJoiningAndLeaving(t *testing.T) {
	const workers = 16
	c := NewSimClockAt(Epoch)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c.AddWorker(1)
				c.Sleep(time.Duration(w+1) * 100 * time.Millisecond)
				c.DoneWorker()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("join/leave churn deadlocked")
	}
	// No exact final time is defined under churn (registration windows
	// overlap nondeterministically), but the clock must have advanced at
	// least the longest single worker's serial schedule and must be
	// monotone, which Sleep asserts implicitly by never waking early.
	if min := workers * 20 * 100 * time.Millisecond / time.Duration(workers); c.Now().Sub(Epoch) < min {
		t.Fatalf("clock advanced only %v", c.Now().Sub(Epoch))
	}
}
