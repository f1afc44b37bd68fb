package core

import (
	"runtime"
	"testing"
	"time"

	"colormatch/internal/sim"
)

// TestCameraGateHandoffKeepsWaiterOnClock: releasing the gate to a waiting
// lane re-registers that lane as a clock worker before the releasing lane
// can sleep again, so the releaser's next sleep cannot carry virtual time
// past the hand-off. One core makes the releaser run on past Unlock before
// the waiter is scheduled, which is when a late re-registration shows.
func TestCameraGateHandoffKeepsWaiterOnClock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 200; i++ {
		clock := sim.NewSimClockAt(sim.Epoch)
		clock.AddWorker(2)
		gate := NewCameraGate(clock)
		gate.Lock()
		resumed := make(chan time.Duration, 1)
		go func() {
			gate.Lock()
			clock.Sleep(time.Second)
			resumed <- clock.Now().Sub(sim.Epoch)
			gate.Unlock()
			clock.DoneWorker()
		}()
		// Returns once the waiter has left the worker set to block on the gate.
		clock.Sleep(time.Nanosecond)
		gate.Unlock()
		clock.Sleep(time.Hour)
		clock.DoneWorker()
		if got, want := <-resumed, time.Second+time.Nanosecond; got != want {
			t.Fatalf("iteration %d: waiter's 1s sleep ended at +%v, want +%v", i, got, want)
		}
	}
}
