package sim

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// BenchmarkSimClockSleepSingle is the untracked-simulation fast path: no
// registered workers, every Sleep advances the clock directly.
func BenchmarkSimClockSleepSingle(b *testing.B) {
	c := NewSimClockAt(Epoch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Millisecond)
	}
}

// BenchmarkSimClockWorkers measures the contended path a fleet run exercises:
// many registered workers sleeping concurrently, the clock advancing via the
// sleeper min-heap each time the pool quiesces.
func BenchmarkSimClockWorkers(b *testing.B) {
	for _, workers := range []int{4, 32} {
		b.Run(map[int]string{4: "4", 32: "32"}[workers], func(b *testing.B) {
			c := NewSimClockAt(Epoch)
			c.AddWorker(workers)
			var wg sync.WaitGroup
			b.ReportAllocs()
			b.ResetTimer()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					defer c.DoneWorker()
					d := time.Duration(w+1) * time.Millisecond
					for i := 0; i < b.N; i++ {
						c.Sleep(d)
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkSimClockAdvance drives a large sleeper population through Advance,
// the test-harness path that exercises heap pop without the worker gating.
func BenchmarkSimClockAdvance(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := NewSimClockAt(Epoch)
		c.AddWorker(64 + 1) // gate advances so sleepers pile up
		var wg sync.WaitGroup
		for w := 0; w < 64; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer c.DoneWorker()
				c.Sleep(time.Duration(w+1) * time.Second)
			}(w)
		}
		for {
			c.mu.Lock()
			n := len(c.sleeper)
			c.mu.Unlock()
			if n == 64 {
				break
			}
		}
		b.StartTimer()
		c.Advance(65 * time.Second)
		b.StopTimer()
		c.DoneWorker()
		wg.Wait()
		b.StartTimer()
	}
}

// normChunk is one render noise chunk: 16 rows of a 640×480 RGB frame.
const normChunk = 16 * 640 * 3

// BenchmarkNormFloat64Fill draws one render noise chunk through the inlined
// ziggurat over the buffered source.
func BenchmarkNormFloat64Fill(b *testing.B) {
	g := NewRNG(1)
	dst := make([]float64, normChunk)
	b.SetBytes(normChunk * 8)
	for i := 0; i < b.N; i++ {
		g.NormFloat64Fill(dst)
	}
}

// BenchmarkNormFloat64Loop draws the same chunk with one
// (*rand.Rand).NormFloat64 call per deviate over the stdlib source: the
// identical values through the stdlib's per-call path, the baseline
// BenchmarkNormFloat64Fill is read against.
func BenchmarkNormFloat64Loop(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	dst := make([]float64, normChunk)
	b.SetBytes(normChunk * 8)
	for i := 0; i < b.N; i++ {
		for k := range dst {
			dst[k] = r.NormFloat64()
		}
	}
}
