package sim

import (
	"testing"
	"time"
)

// TestSleepSingleWorkerAllocFree pins the untracked fast path: a Sleep with
// no registered workers advances the clock with zero allocations.
func TestSleepSingleWorkerAllocFree(t *testing.T) {
	c := NewSimClockAt(Epoch)
	if n := testing.AllocsPerRun(100, func() { c.Sleep(time.Millisecond) }); n != 0 {
		t.Fatalf("single-worker Sleep allocates %.1f times per call, want 0", n)
	}
}

// TestSleepWakeCycleAllocBound pins the contended path: with the sleeper
// pool warm, a full sleep/wake round trip between two workers must stay
// (amortized) allocation-free. A small slack absorbs sync.Pool refills after
// incidental GC cycles; the pre-refactor implementation allocated a sleeper
// and a channel (2+ allocations) on every single call.
func TestSleepWakeCycleAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool intentionally drops Puts under -race; exact allocation bounds don't hold")
	}
	c := NewSimClockAt(Epoch)
	c.AddWorker(2)
	stop := make(chan struct{})
	partnerDone := make(chan struct{})
	go func() {
		defer close(partnerDone)
		defer c.DoneWorker()
		for {
			select {
			case <-stop:
				return
			default:
				c.Sleep(time.Millisecond)
			}
		}
	}()
	c.Sleep(time.Millisecond) // warm both sleeper-pool entries
	n := testing.AllocsPerRun(200, func() { c.Sleep(time.Millisecond) })
	close(stop)
	// The partner may be blocked in Sleep waiting for us; feed advances
	// until it observes stop and unregisters.
	for {
		select {
		case <-partnerDone:
			c.DoneWorker()
			if n > 0.5 {
				t.Fatalf("sleep/wake cycle allocates %.2f times per call, want ~0", n)
			}
			return
		default:
			c.Sleep(time.Millisecond)
		}
	}
}
