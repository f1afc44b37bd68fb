package hough

import (
	"math"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/sim"
	"colormatch/internal/vision/raster"
)

func grayWithCircles(bg uint8, circles []Circle, fill []color.RGB8) *raster.Gray {
	img := raster.NewRGBA(200, 150, color.RGB8{R: bg, G: bg, B: bg})
	for i, c := range circles {
		raster.FillCircle(img, c.X, c.Y, c.R, fill[i])
	}
	return raster.FromRGBA(img)
}

func TestDetectSingleDarkCircle(t *testing.T) {
	truth := []Circle{{X: 100, Y: 75, R: 12}}
	g := grayWithCircles(240, truth, []color.RGB8{{R: 40, G: 40, B: 40}})
	got := Circles(g, Rect{0, 0, 200, 150}, DefaultParams())
	if len(got) == 0 {
		t.Fatal("no circles found")
	}
	best := got[0]
	if math.Hypot(best.X-100, best.Y-75) > 2 {
		t.Fatalf("center (%v,%v), want ~(100,75)", best.X, best.Y)
	}
	if math.Abs(best.R-12) > 1.5 {
		t.Fatalf("radius %v, want ~12", best.R)
	}
}

func TestDetectGridOfCircles(t *testing.T) {
	var truth []Circle
	var fills []color.RGB8
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			truth = append(truth, Circle{X: 40 + float64(c)*35, Y: 35 + float64(r)*35, R: 11})
			fills = append(fills, color.RGB8{R: 60, G: 30, B: 90})
		}
	}
	g := grayWithCircles(245, truth, fills)
	got := Circles(g, Rect{0, 0, 200, 150}, DefaultParams())
	if len(got) != len(truth) {
		t.Fatalf("found %d circles, want %d", len(got), len(truth))
	}
	for _, want := range truth {
		found := false
		for _, c := range got {
			if math.Hypot(c.X-want.X, c.Y-want.Y) <= 3 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("circle at (%v,%v) missed", want.X, want.Y)
		}
	}
}

func TestLowContrastCircleMissed(t *testing.T) {
	// A well barely darker than the plate must NOT be detected with default
	// parameters — this is the false-negative behavior the paper describes.
	truth := []Circle{{X: 100, Y: 75, R: 12}}
	g := grayWithCircles(240, truth, []color.RGB8{{R: 232, G: 232, B: 232}})
	got := Circles(g, Rect{0, 0, 200, 150}, DefaultParams())
	if len(got) != 0 {
		t.Fatalf("low-contrast circle detected: %+v", got)
	}
}

func TestRegionRestricts(t *testing.T) {
	truth := []Circle{{X: 50, Y: 75, R: 12}, {X: 150, Y: 75, R: 12}}
	fills := []color.RGB8{{R: 30, G: 30, B: 30}, {R: 30, G: 30, B: 30}}
	g := grayWithCircles(245, truth, fills)
	got := Circles(g, Rect{100, 0, 200, 150}, DefaultParams())
	for _, c := range got {
		if c.X < 100 {
			t.Fatalf("circle outside region: %+v", c)
		}
	}
	if len(got) != 1 {
		t.Fatalf("found %d circles in half-region, want 1", len(got))
	}
}

func TestNonMaxSuppression(t *testing.T) {
	truth := []Circle{{X: 100, Y: 75, R: 12}}
	g := grayWithCircles(240, truth, []color.RGB8{{R: 20, G: 20, B: 20}})
	got := Circles(g, Rect{0, 0, 200, 150}, DefaultParams())
	// A strong circle votes at many nearby radii; NMS must keep one.
	if len(got) != 1 {
		t.Fatalf("NMS kept %d circles for one disk", len(got))
	}
}

func TestNoiseDoesNotHallucinate(t *testing.T) {
	img := raster.NewRGBA(200, 150, color.RGB8{R: 240, G: 240, B: 240})
	rng := sim.NewRNG(3)
	for i := 0; i < len(img.Pix); i += 4 {
		for c := 0; c < 3; c++ {
			v := float64(img.Pix[i+c]) + rng.Normal(0, 4)
			img.Pix[i+c] = uint8(math.Max(0, math.Min(255, v)))
		}
	}
	got := Circles(raster.FromRGBA(img), Rect{0, 0, 200, 150}, DefaultParams())
	if len(got) != 0 {
		t.Fatalf("hallucinated %d circles in noise", len(got))
	}
}

func TestDegenerateParams(t *testing.T) {
	g := raster.NewGray(50, 50)
	if got := Circles(g, Rect{0, 0, 50, 50}, Params{RMin: 0, RMax: 5}); got != nil {
		t.Fatal("RMin=0 should return nil")
	}
	if got := Circles(g, Rect{0, 0, 50, 50}, Params{RMin: 10, RMax: 5}); got != nil {
		t.Fatal("RMax<RMin should return nil")
	}
	if got := Circles(g, Rect{40, 40, 10, 10}, DefaultParams()); got != nil {
		t.Fatal("empty region should return nil")
	}
}

func TestRegionClampsToImage(t *testing.T) {
	truth := []Circle{{X: 100, Y: 75, R: 12}}
	g := grayWithCircles(240, truth, []color.RGB8{{R: 40, G: 40, B: 40}})
	got := Circles(g, Rect{-50, -50, 10000, 10000}, DefaultParams())
	if len(got) != 1 {
		t.Fatalf("oversized region: %d circles", len(got))
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{10, 10, 20, 20}
	if !r.Contains(10, 10) || r.Contains(20, 20) || r.Contains(9, 15) {
		t.Fatal("Contains boundary semantics wrong")
	}
}

// TestScratchReuseMatchesFresh drives CirclesScratch with one reused Scratch
// through a randomized sequence of scenes, regions, and parameter sets, and
// checks every result against a fresh-scratch run of the same input. Any
// stale accumulator, candidate, or output state leaking between calls would
// show up as a mismatch.
func TestScratchReuseMatchesFresh(t *testing.T) {
	rng := sim.NewRNG(99)
	reused := &Scratch{}
	for iter := 0; iter < 25; iter++ {
		var truth []Circle
		var fills []color.RGB8
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			truth = append(truth, Circle{
				X: 20 + float64(rng.Intn(160)),
				Y: 20 + float64(rng.Intn(110)),
				R: 9 + float64(rng.Intn(5)),
			})
			shade := uint8(rng.Intn(120))
			fills = append(fills, color.RGB8{R: shade, G: shade, B: shade})
		}
		g := grayWithCircles(240, truth, fills)
		region := Rect{rng.Intn(30), rng.Intn(30), 120 + rng.Intn(100), 90 + rng.Intn(80)}
		p := DefaultParams()
		p.RMin += rng.Intn(2)
		p.RMax += rng.Intn(3) - 1
		got := CirclesScratch(g, region, p, reused)
		want := CirclesScratch(g, region, p, &Scratch{})
		if len(got) != len(want) {
			t.Fatalf("iter %d: reused scratch found %d circles, fresh found %d", iter, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d circle %d: reused %+v != fresh %+v", iter, i, got[i], want[i])
			}
		}
	}
}

// TestPeaksKeepsRowsAtBound plants 3×3 blocks of single votes. A block's
// center has a box sum of 9, exactly three times the sum of its three rows'
// maxima, which is the bound peaks prunes rows by: at minVotes 9 the row
// must be searched and the center found, at 10 nothing may be. The blocks
// sit inside the plane and against its corners, where rows beyond the plane
// count as zero.
func TestPeaksKeepsRowsAtBound(t *testing.T) {
	const w, h = 12, 9
	region := Rect{X0: 100, Y0: 50, X1: 100 + w, Y1: 50 + h}
	for _, at := range [][2]int{{4, 3}, {0, 0}, {w - 3, h - 3}} {
		for _, minVotes := range []int32{9, 10} {
			ps := planeScratch{
				votes:  make([]int32, (w+2)*h),
				rowMax: make([]int32, h),
				need:   make([]uint8, h),
				rowSum: make([]int32, 3*w),
				smooth: make([]int32, 3*(w+2)),
				zero:   make([]int32, w+2),
			}
			for y := at[1]; y < at[1]+3; y++ {
				for x := at[0]; x < at[0]+3; x++ {
					ps.vote(y*(w+2)+x+1, y)
				}
			}
			got := ps.peaks(nil, region, 11, minVotes, w, h)
			var want []Circle
			if minVotes == 9 {
				want = []Circle{{X: float64(region.X0 + at[0] + 1), Y: float64(region.Y0 + at[1] + 1), R: 11, Votes: 9}}
			}
			if len(got) != len(want) || len(got) == 1 && got[0] != want[0] {
				t.Fatalf("block at %v, minVotes %d: peaks %+v, want %+v", at, minVotes, got, want)
			}
			for i, v := range append(ps.votes, ps.rowMax...) {
				if v != 0 {
					t.Fatalf("block at %v, minVotes %d: cell %d left at %d", at, minVotes, i, v)
				}
			}
		}
	}
}
