package hough

import "testing"

// An Analyzer runs CirclesScratch on every photo of a campaign. On warm
// scratch the only allocations left are sort.Slice's and one per extra
// worker goroutine; per-plane buffers must never be allocated per call.
const (
	sortAllocs   = 3 // sort.Slice: the less closure and the reflect swapper
	workerAllocs = 1 // the started goroutine's closure
)

func TestCirclesScratchAllocs(t *testing.T) {
	g, region := benchPlate()
	p := DefaultParams()
	var s Scratch
	// testing.AllocsPerRun sets GOMAXPROCS to 1, so CirclesScratch itself
	// runs one worker; the unexported seam measures the others.
	CirclesScratch(g, region, p, &s)
	if n := testing.AllocsPerRun(20, func() { CirclesScratch(g, region, p, &s) }); n > sortAllocs {
		t.Fatalf("CirclesScratch on warm scratch allocates %.1f times per call, want ≤ %d", n, sortAllocs)
	}
	for _, workers := range []int{2, 3, p.RMax - p.RMin + 1} {
		circles(g, region, p, &s, workers)
		limit := float64(sortAllocs + workerAllocs*(workers-1))
		if n := testing.AllocsPerRun(20, func() { circles(g, region, p, &s, workers) }); n > limit {
			t.Fatalf("%d workers on warm scratch allocate %.1f times per call, want ≤ %v", workers, n, limit)
		}
	}
}
