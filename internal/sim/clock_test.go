package sim

import (
	"sync"
	"testing"
	"time"
)

func TestSimClockStartsAtEpoch(t *testing.T) {
	c := NewSimClockAt(Epoch)
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", c.Now(), Epoch)
	}
}

func TestSimClockSleepAdvances(t *testing.T) {
	c := NewSimClockAt(Epoch)
	c.Sleep(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if !c.Now().Equal(want) {
		t.Fatalf("after Sleep: Now() = %v, want %v", c.Now(), want)
	}
}

func TestSimClockZeroAndNegativeSleep(t *testing.T) {
	c := NewSimClockAt(Epoch)
	c.Sleep(0)
	c.Sleep(-time.Hour)
	if !c.Now().Equal(Epoch) {
		t.Fatalf("zero/negative sleep moved the clock to %v", c.Now())
	}
}

func TestSimClockSequentialSleepsAccumulate(t *testing.T) {
	c := NewSimClockAt(Epoch)
	total := time.Duration(0)
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		c.Sleep(d)
		total += d
	}
	if got := c.Now().Sub(Epoch); got != total {
		t.Fatalf("accumulated %v, want %v", got, total)
	}
}

func TestSimClockAdvanceWakesSleepers(t *testing.T) {
	c := NewSimClockAt(Epoch)
	c.AddWorker(2) // ensure Sleep blocks rather than self-advancing
	done := make(chan time.Time, 1)
	go func() {
		c.Sleep(5 * time.Minute)
		done <- c.Now()
	}()
	// Give the sleeper a moment to register, then advance past its deadline.
	for i := 0; i < 100; i++ {
		c.mu.Lock()
		n := len(c.sleeper)
		c.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Advance(10 * time.Minute)
	select {
	case at := <-done:
		if at.Before(Epoch.Add(5 * time.Minute)) {
			t.Fatalf("sleeper woke at %v, before its deadline", at)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper never woke after Advance")
	}
}

func TestSimClockParallelWorkersOverlap(t *testing.T) {
	// Two workers each sleeping 1 hour concurrently must finish at
	// Epoch+1h (overlap), not Epoch+2h (serialization).
	c := NewSimClockAt(Epoch)
	c.AddWorker(2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Sleep(time.Hour)
			c.DoneWorker()
		}()
	}
	wg.Wait()
	if got := c.Now().Sub(Epoch); got != time.Hour {
		t.Fatalf("parallel sleeps advanced clock by %v, want 1h", got)
	}
}

func TestSimClockStaggeredWorkers(t *testing.T) {
	// Worker A sleeps 10m then 20m; worker B sleeps 25m once.
	// Total virtual span must be max(30m, 25m) = 30m.
	c := NewSimClockAt(Epoch)
	c.AddWorker(2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c.Sleep(10 * time.Minute)
		c.Sleep(20 * time.Minute)
		c.DoneWorker()
	}()
	go func() {
		defer wg.Done()
		c.Sleep(25 * time.Minute)
		c.DoneWorker()
	}()
	wg.Wait()
	if got := c.Now().Sub(Epoch); got != 30*time.Minute {
		t.Fatalf("staggered sleeps advanced clock by %v, want 30m", got)
	}
}

func TestSimClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewSimClockAt(Epoch).Advance(-time.Second)
}

func TestRealClockSleepIsApproximatelyReal(t *testing.T) {
	start := time.Now()
	RealClock{}.Sleep(10 * time.Millisecond)
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("RealClock.Sleep returned after %v", el)
	}
	// Negative sleep must not block.
	RealClock{}.Sleep(-time.Hour)
}
