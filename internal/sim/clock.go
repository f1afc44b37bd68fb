// Package sim provides the simulation substrate shared by every device and
// platform component in this repository: a virtual clock, deterministic
// random-number streams, and a fault injector.
//
// The paper's experiments run for up to 8 hours of wall time on a physical
// workcell. Replacing the physical workcell with simulated devices only
// preserves the paper's timing results (Table 1, Figure 4) if every action
// advances a faithful model of time. The Clock interface lets the same
// engine, device, and application code run either against a SimClock (an
// 8-hour experiment replays in milliseconds) or a RealClock (actions sleep
// for their modeled duration).
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Clock is the time source used by all simulated components. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller until d has elapsed on this clock.
	// A non-positive d returns immediately.
	Sleep(d time.Duration)
}

// Epoch is the default start time for simulated clocks. The exact date is
// arbitrary; it is fixed so that event logs and portal records are
// reproducible run-to-run.
var Epoch = time.Date(2023, time.August, 16, 9, 0, 0, 0, time.UTC)

// RealClock is a Clock backed by the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// Sleep calls time.Sleep.
func (RealClock) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// SimClock is a virtual clock. Time advances only when a goroutine sleeps on
// it. When several goroutines sleep concurrently, the clock advances to the
// earliest pending wake-up each time all known sleepers are blocked, which
// makes concurrent simulated work (e.g. two OT-2 modules mixing in parallel)
// overlap in virtual time exactly as it would on real hardware.
//
// The zero value is not usable; construct with NewSimClockAt.
type SimClock struct {
	mu  sync.Mutex
	now time.Time
	// sleeper is a binary min-heap ordered by deadline, so each advance costs
	// O(log n) instead of the O(n log n) full sort the first implementation
	// paid on every wake-up cycle.
	sleeper []*simSleeper
	// waiters counts goroutines currently registered via AddWorker that the
	// clock should wait for before advancing time. When zero, any Sleep
	// advances the clock immediately (single-threaded simulation).
	workers int
}

type simSleeper struct {
	deadline time.Time
	// ch carries the wake-up signal. It is buffered so the clock can send
	// without blocking, and signaled by send rather than close so the sleeper
	// can return to sleeperPool and be reused for a later Sleep.
	ch chan struct{}
}

// sleeperPool recycles simSleepers (and their channels) across Sleep calls;
// a steady-state simulation sleeps allocation-free.
var sleeperPool = sync.Pool{
	New: func() any { return &simSleeper{ch: make(chan struct{}, 1)} },
}

// push adds s to the deadline min-heap. Caller holds c.mu.
func (c *SimClock) push(s *simSleeper) {
	c.sleeper = append(c.sleeper, s)
	h := c.sleeper
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h[i].deadline.Before(h[parent].deadline) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest-deadline sleeper. Caller holds c.mu.
func (c *SimClock) pop() *simSleeper {
	h := c.sleeper
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil // release the reference so the heap's spare capacity doesn't pin it
	c.sleeper = h[:n]
	h = c.sleeper
	for i := 0; ; {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && h[right].deadline.Before(h[left].deadline) {
			min = right
		}
		if !h[min].deadline.Before(h[i].deadline) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// NewSimClockAt returns a SimClock starting at the given time.
func NewSimClockAt(start time.Time) *SimClock {
	return &SimClock{now: start}
}

// Now returns the current virtual time.
func (c *SimClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AddWorker registers n additional goroutines as active simulation workers.
// While more than zero workers are registered, Sleep only advances the clock
// when every registered worker is blocked in Sleep, so that parallel workers
// overlap in virtual time. Call with a negative n (or use DoneWorker) when a
// worker exits.
func (c *SimClock) AddWorker(n int) {
	c.mu.Lock()
	c.workers += n
	if c.workers < 0 {
		c.workers = 0
	}
	c.advanceLocked()
	c.mu.Unlock()
}

// DoneWorker unregisters one simulation worker.
func (c *SimClock) DoneWorker() { c.AddWorker(-1) }

// Sleep advances virtual time. If no workers are registered, the clock jumps
// immediately. With registered workers, the caller blocks until the clock
// reaches its deadline, which happens once all workers are sleeping.
func (c *SimClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	if c.workers <= 1 {
		// Single-threaded (or untracked) simulation: advance directly.
		c.now = c.now.Add(d)
		c.advanceLocked()
		c.mu.Unlock()
		return
	}
	s := sleeperPool.Get().(*simSleeper)
	s.deadline = c.now.Add(d)
	c.push(s)
	c.advanceLocked()
	c.mu.Unlock()
	<-s.ch
	sleeperPool.Put(s)
}

// advanceLocked wakes sleepers and advances time while all workers are
// blocked. Caller holds c.mu.
func (c *SimClock) advanceLocked() {
	for {
		// Wake every sleeper whose deadline has passed, earliest first.
		for len(c.sleeper) > 0 && !c.sleeper[0].deadline.After(c.now) {
			s := c.pop()
			s.ch <- struct{}{}
		}
		if len(c.sleeper) == 0 {
			return
		}
		// Only advance when every tracked worker is accounted for as asleep.
		if c.workers > 0 && len(c.sleeper) < c.workers {
			return
		}
		c.now = c.sleeper[0].deadline
	}
}

// Advance moves the clock forward by d without blocking, waking any sleepers
// whose deadlines pass. Useful in tests.
//
//lint:ignore testonly test seam: moves virtual time with no sleeper, which only a test driving the clock by hand needs
func (c *SimClock) Advance(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative advance %v", d))
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.advanceLocked()
	c.mu.Unlock()
}
