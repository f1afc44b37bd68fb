package sim

import (
	"fmt"
	"sort"
	"testing"
	"time"
)

// TestHeapMatchesSortedReference drives the sleeper min-heap through
// randomized push/pop interleavings and checks every pop against a
// sorted-slice reference — the data structure advanceLocked used before the
// heap refactor. Any heap-property violation (wrong sift direction, stale
// tail element after pop) surfaces as an out-of-order wake deadline.
func TestHeapMatchesSortedReference(t *testing.T) {
	rng := NewRNG(41)
	for iter := 0; iter < 50; iter++ {
		c := NewSimClockAt(Epoch)
		var ref []time.Time
		popRef := func() time.Time {
			sort.Slice(ref, func(i, j int) bool { return ref[i].Before(ref[j]) })
			d := ref[0]
			ref = ref[1:]
			return d
		}
		ops := 3 + rng.Intn(200)
		for op := 0; op < ops; op++ {
			if len(ref) == 0 || rng.Float64() < 0.6 {
				// Duplicate deadlines are common in real schedules (many
				// modules share an act delay), so draw from a small range.
				d := Epoch.Add(time.Duration(rng.Intn(32)) * time.Second)
				c.push(&simSleeper{deadline: d})
				ref = append(ref, d)
				continue
			}
			want := popRef()
			got := c.pop().deadline
			if !got.Equal(want) {
				t.Fatalf("iter %d op %d: heap popped %v, sorted reference gives %v", iter, op, got, want)
			}
		}
		for len(ref) > 0 {
			want := popRef()
			got := c.pop().deadline
			if !got.Equal(want) {
				t.Fatalf("iter %d drain: heap popped %v, sorted reference gives %v", iter, got, want)
			}
		}
		if len(c.sleeper) != 0 {
			t.Fatalf("iter %d: %d sleepers left after drain", iter, len(c.sleeper))
		}
	}
}

// TestConcurrentWakeupsMatchReferenceSchedule runs randomized multi-worker
// schedules end to end and checks each wake-up against the analytically
// computed reference: worker w's i-th sleep must return with the clock
// exactly at the cumulative sum of its first i durations. The all-workers-
// asleep advance rule guarantees the clock cannot move past a woken worker
// until that worker sleeps again, so the equality is exact, not a lower
// bound. Run under -race in CI like the rest of the clock suite.
func TestConcurrentWakeupsMatchReferenceSchedule(t *testing.T) {
	rng := NewRNG(42)
	for iter := 0; iter < 8; iter++ {
		workers := 2 + rng.Intn(6)
		rounds := 1 + rng.Intn(20)
		schedules := make([][]time.Duration, workers)
		var longest time.Duration
		for w := range schedules {
			schedules[w] = make([]time.Duration, rounds)
			var total time.Duration
			for i := range schedules[w] {
				schedules[w][i] = time.Duration(1+rng.Intn(5000)) * time.Millisecond
				total += schedules[w][i]
			}
			if total > longest {
				longest = total
			}
		}
		c := NewSimClockAt(Epoch)
		c.AddWorker(workers)
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			go func(sched []time.Duration) {
				defer c.DoneWorker()
				elapsed := time.Duration(0)
				for _, d := range sched {
					c.Sleep(d)
					elapsed += d
					if got := c.Now().Sub(Epoch); got != elapsed {
						errs <- fmt.Errorf("woke at +%v, reference schedule says +%v", got, elapsed)
						return
					}
				}
				errs <- nil
			}(schedules[w])
		}
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
		if got := c.Now().Sub(Epoch); got != longest {
			t.Fatalf("iter %d: clock ended at +%v, want longest timeline +%v", iter, got, longest)
		}
	}
}
