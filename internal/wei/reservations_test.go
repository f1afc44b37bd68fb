package wei

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"colormatch/internal/sim"
)

func TestReservationsFreeModuleAcquiresImmediately(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	r := NewReservations(clock)
	if wait := r.Acquire("pf400"); wait != 0 {
		t.Fatalf("free module waited %v", wait)
	}
	r.Release("pf400")
	u := r.Usage()["pf400"]
	if u.Acquires != 1 || u.QueueWait != 0 || u.MaxQueue != 0 {
		t.Fatalf("usage = %+v", u)
	}
}

func TestReservationsIndependentModules(t *testing.T) {
	r := NewReservations(sim.NewSimClockAt(sim.Epoch))
	if r.Acquire("pf400") != 0 {
		t.Fatal("pf400 not free")
	}
	// A different module must not queue behind pf400's holder.
	if r.Acquire("camera") != 0 {
		t.Fatal("camera queued behind pf400")
	}
	r.Release("camera")
	r.Release("pf400")
}

func TestReservationsReleaseUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewReservations(sim.NewSimClockAt(sim.Epoch)).Release("pf400")
}

// TestReservationsQueueWaitInVirtualTime drives two workers through one
// module on a virtual clock: the holder sleeps 10 minutes of robot time, so
// the waiter's measured queue wait must be 10 minutes even though the test
// runs in microseconds of host time.
func TestReservationsQueueWaitInVirtualTime(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	r := NewReservations(clock)
	const hold = 10 * time.Minute

	clock.AddWorker(2)
	var wait time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		defer clock.DoneWorker()
		r.Acquire("ot2")
		close(started)
		clock.Sleep(hold)
		r.Release("ot2")
	}()
	go func() {
		defer wg.Done()
		defer clock.DoneWorker()
		<-started
		wait = r.Acquire("ot2")
		r.Release("ot2")
	}()
	wg.Wait()
	if wait != hold {
		t.Fatalf("queue wait = %v, want %v", wait, hold)
	}
	u := r.Usage()["ot2"]
	if u.Acquires != 2 || u.QueueWait != hold || u.Busy != hold || u.MaxQueue != 1 {
		t.Fatalf("usage = %+v", u)
	}
}

// TestReservationsFIFOFair queues many waiters behind a holder and checks
// they are granted the module strictly in arrival order.
func TestReservationsFIFOFair(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	r := NewReservations(clock)
	const n = 8

	r.Acquire("pf400")
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.Acquire("pf400")
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			r.Release("pf400")
		}(i)
		// Wait until waiter i is actually parked in the queue before
		// starting the next, so arrival order is deterministic.
		waitForQueueDepth(t, r, "pf400", i+1)
	}
	r.Release("pf400")
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
	if u := r.Usage()["pf400"]; u.MaxQueue != n {
		t.Fatalf("max queue = %d, want %d", u.MaxQueue, n)
	}
}

func waitForQueueDepth(t *testing.T, r *Reservations, module string, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		r.mu.Lock()
		l := r.mods[module]
		n := 0
		if l != nil {
			n = len(l.queue)
		}
		r.mu.Unlock()
		if n >= depth {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", n, depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestEngineConcurrentWorkflowsMutuallyExclusive is the tentpole invariant:
// two workflows running concurrently on one engine (shared event log, shared
// reservations) never occupy the same module at the same virtual time, and
// the queue wait shows up in step records and events.
func TestEngineConcurrentWorkflowsMutuallyExclusive(t *testing.T) {
	clock := sim.NewSimClockAt(sim.Epoch)
	reg := NewRegistry()
	reg.Add(slowModule("pf400", clock, 30*time.Second))
	reg.Add(slowModule("camera", clock, 2*time.Second))
	eng := NewEngine(reg, clock, NewEventLog(clock))
	eng.Reservations = NewReservations(clock)

	wf := func(name string) *WorkflowSpec {
		return &WorkflowSpec{Name: name, Steps: []Step{
			{Name: "move", Module: "pf400", Action: "work"},
			{Name: "shoot", Module: "camera", Action: "work"},
			{Name: "move_back", Module: "pf400", Action: "work"},
		}}
	}

	const loops = 3
	clock.AddWorker(2)
	var wg sync.WaitGroup
	var recMu sync.Mutex
	var queued time.Duration
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer clock.DoneWorker()
			for i := 0; i < loops; i++ {
				rec, err := eng.RunWorkflow(context.Background(), wf(fmt.Sprintf("wf%d", w)), nil)
				if err != nil {
					t.Errorf("workflow %d: %v", w, err)
					return
				}
				recMu.Lock()
				for _, s := range rec.Steps {
					queued += s.QueueWait
				}
				recMu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	events := eng.Log.Events()
	if err := VerifyModuleExclusion(events); err != nil {
		t.Fatal(err)
	}

	// With two workflows fighting over one 30s arm, somebody must queue, and
	// the wait must be robot time (tens of seconds), not host microseconds.
	if queued < 30*time.Second {
		t.Fatalf("total queue wait %v, expected >= 30s of contention", queued)
	}
	var evQueued time.Duration
	for _, e := range events {
		if e.Kind == EvStepEnd {
			evQueued += e.QueueWait
		}
	}
	if evQueued != queued {
		t.Fatalf("event-log queue wait %v != step-record total %v", evQueued, queued)
	}
	usage := eng.Reservations.Usage()
	if usage["pf400"].QueueWait != queued {
		t.Fatalf("reservation usage wait %v != %v", usage["pf400"].QueueWait, queued)
	}
}

// TestVerifyModuleExclusionDetectsOverlap feeds the checker a hand-built
// violating log to make sure failures are actually detectable.
func TestVerifyModuleExclusionDetectsOverlap(t *testing.T) {
	at := func(d time.Duration) time.Time { return sim.Epoch.Add(d) }
	bad := []Event{
		{Kind: EvCommandSent, Workflow: "a", Step: "s", Module: "pf400", Attempt: 1, Time: at(0)},
		{Kind: EvCommandDone, Workflow: "a", Step: "s", Module: "pf400", Attempt: 1, Time: at(30 * time.Second)},
	}
	overlapping := []Event{
		{Kind: EvCommandSent, Workflow: "b", Step: "s", Module: "pf400", Attempt: 1, Time: at(10 * time.Second)},
		{Kind: EvCommandDone, Workflow: "b", Step: "s", Module: "pf400", Attempt: 1, Time: at(20 * time.Second)},
	}
	if err := VerifyModuleExclusion(bad, overlapping); err == nil {
		t.Fatal("overlapping occupancy not detected")
	}
	// Sharing a boundary timestamp is legal: windows are half-open.
	adjacent := []Event{
		{Kind: EvCommandSent, Workflow: "c", Step: "s", Module: "pf400", Attempt: 1, Time: at(30 * time.Second)},
		{Kind: EvCommandDone, Workflow: "c", Step: "s", Module: "pf400", Attempt: 1, Time: at(40 * time.Second)},
	}
	if err := VerifyModuleExclusion(bad, adjacent); err != nil {
		t.Fatalf("adjacent windows rejected: %v", err)
	}
	// A send that never completes must be flagged too.
	dangling := []Event{
		{Kind: EvCommandSent, Workflow: "d", Step: "s", Module: "pf400", Attempt: 1, Time: at(time.Hour)},
	}
	if err := VerifyModuleExclusion(dangling); err == nil {
		t.Fatal("dangling send not detected")
	}
}
