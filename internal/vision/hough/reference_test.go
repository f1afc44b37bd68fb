package hough_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/hough"
	"colormatch/internal/vision/raster"
	"colormatch/internal/vision/render"
)

// referenceCircles is the transform as defined, with none of the kernel's
// restructuring: every strong edge pixel votes into full accumulator planes,
// one per radius, and each cell's support is the direct 9-point sum of the
// plane cells around it.
func referenceCircles(g *raster.Gray, region hough.Rect, p hough.Params) []hough.Circle {
	if p.RMin <= 0 || p.RMax < p.RMin {
		return nil
	}
	region.X0, region.Y0 = max(region.X0, 0), max(region.Y0, 0)
	region.X1, region.Y1 = min(region.X1, g.W), min(region.Y1, g.H)
	w, h := region.X1-region.X0, region.Y1-region.Y0
	if w <= 0 || h <= 0 {
		return nil
	}
	nr := p.RMax - p.RMin + 1
	planes := make([][]int32, nr)
	for ri := range planes {
		planes[ri] = make([]int32, w*h)
	}
	at := func(x, y int) float64 { return g.Pix[y*g.W+x] }
	for y := max(region.Y0, 1); y < min(region.Y1, g.H-1); y++ {
		for x := max(region.X0, 1); x < min(region.X1, g.W-1); x++ {
			gx := -at(x-1, y-1) + at(x+1, y-1) +
				-2*at(x-1, y) + 2*at(x+1, y) +
				-at(x-1, y+1) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			m := math.Hypot(gx, gy)
			if m < p.MagThresh {
				continue
			}
			cs, sn := gx/m, gy/m
			fx, fy := float64(x), float64(y)
			for ri, plane := range planes {
				r := float64(p.RMin + ri)
				for _, c := range [][2]int{
					{int(fx + r*cs + 0.5), int(fy + r*sn + 0.5)},
					{int(fx - r*cs + 0.5), int(fy - r*sn + 0.5)},
				} {
					if region.Contains(c[0], c[1]) {
						plane[(c[1]-region.Y0)*w+(c[0]-region.X0)]++
					}
				}
			}
		}
	}
	box := func(plane []int32, x, y int) int32 {
		var sum int32
		for yy := y - 1; yy <= y+1; yy++ {
			for xx := x - 1; xx <= x+1; xx++ {
				if xx >= 0 && xx < w && yy >= 0 && yy < h {
					sum += plane[yy*w+xx]
				}
			}
		}
		return sum
	}
	var cands []hough.Circle
	for ri, plane := range planes {
		r := float64(p.RMin + ri)
		minVotes := max(int32(p.MinSupport*2*math.Pi*r), 3)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				v := box(plane, x, y)
				if v < minVotes {
					continue
				}
				// Strict local maximum; an equal neighbor earlier in
				// row-major order wins the tie.
				peak := true
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						xx, yy := x+dx, y+dy
						if dx == 0 && dy == 0 || xx < 0 || xx >= w || yy < 0 || yy >= h {
							continue
						}
						n := box(plane, xx, yy)
						earlier := dy < 0 || dy == 0 && dx < 0
						if n > v || n == v && earlier {
							peak = false
						}
					}
				}
				if peak {
					cands = append(cands, hough.Circle{
						X: float64(x + region.X0), Y: float64(y + region.Y0), R: r, Votes: int(v),
					})
				}
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Votes > cands[j].Votes })
	minDist := p.MinDist
	if minDist <= 0 {
		minDist = float64(p.RMin)
	}
	var out []hough.Circle
	for _, c := range cands {
		dup := false
		for _, kept := range out {
			if math.Hypot(c.X-kept.X, c.Y-kept.Y) < minDist {
				dup = true
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// wellParams are the parameters the plate analyzer uses for the default
// geometry's wells.
func wellParams() hough.Params {
	geom := render.Default()
	p := hough.DefaultParams()
	p.RMin = int(geom.WellRPx) - 3
	p.RMax = int(geom.WellRPx) + 3
	p.MinDist = geom.PitchPx * 0.6
	return p
}

// plateFrame renders a seeded plate photograph: camera jitter, a partly
// filled plate, some wells barely darker than the plate body, and pixel
// noise. It returns the grayscale frame and the plate region the analyzer
// would search.
func plateFrame(seed int64) (*raster.Gray, hough.Rect) {
	rng := sim.NewRNG(seed)
	s := render.NewScene()
	s.JitterX, s.JitterY = rng.Uniform(-8, 8), rng.Uniform(-6, 6)
	filled := 24 + rng.Intn(labware.PlateWells-24)
	for i := 0; i < filled; i++ {
		s.Filled[i] = true
		if rng.Bool(0.2) {
			shade := uint8(228 + rng.Intn(16))
			s.WellColor[i] = color.RGB8{R: shade, G: shade, B: shade - 4}
		} else {
			s.WellColor[i] = color.RGB8{R: uint8(rng.Intn(200)), G: uint8(rng.Intn(200)), B: uint8(rng.Intn(200))}
		}
	}
	dict := aruco.Default()
	img := s.Render(dict, rng.Derive("px"))
	nomX, nomY := s.Geom.MarkerCenter()
	det := aruco.Detection{CX: nomX + s.JitterX, CY: nomY + s.JitterY, CellPx: s.Geom.MarkerCellPx}
	return raster.FromRGBA(img), s.Geom.PlateRegionFromMarker(det)
}

var workerCounts = []int{1, 2, 3, 8}

func sameCircles(t *testing.T, what string, got, want []hough.Circle) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d circles, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: circle %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestCirclesMatchReferenceOnFrames checks the kernel against the reference
// on seeded plate photographs, at several worker counts, with one reused
// Scratch per count. MinSupport sweeps the vote threshold the kernel's row
// bound prunes against: on these frames the bound has half to two thirds of
// the rows searched at 0.3, a tenth to a fifth at 0.5, and under a tenth at
// 0.7.
func TestCirclesMatchReferenceOnFrames(t *testing.T) {
	frames := 4
	if testing.Short() {
		frames = 2
	}
	scratch := make([]hough.Scratch, len(workerCounts))
	for seed := int64(1); seed <= int64(frames); seed++ {
		g, region := plateFrame(seed)
		for _, p := range []hough.Params{wellParams(), hough.DefaultParams()} {
			for _, support := range []float64{0.3, 0.5, 0.7} {
				p.MinSupport = support
				want := referenceCircles(g, region, p)
				if len(want) == 0 {
					t.Fatalf("seed %d, %+v: reference found no circles", seed, p)
				}
				for i, n := range workerCounts {
					got := hough.CirclesWorkers(g, region, p, &scratch[i], n)
					sameCircles(t, fmt.Sprintf("seed %d, %+v, %d workers", seed, p, n), got, want)
				}
			}
		}
	}
}

// TestScratchLeavesVotePlanesZero reuses one Scratch across regions that
// grow, shrink and change shape, and worker counts that rise and fall: after
// every call each vote plane and row maximum must be zero to the end of its
// buffer, since the next call votes into them without clearing, and every
// result must still match the reference.
func TestScratchLeavesVotePlanesZero(t *testing.T) {
	g, plate := plateFrame(5)
	p := wellParams()
	p.MinSupport = 0.3
	var scratch hough.Scratch
	for i, region := range []hough.Rect{
		plate,
		{X0: plate.X0, Y0: plate.Y0, X1: plate.X0 + 90, Y1: plate.Y1},
		{X0: 0, Y0: 0, X1: g.W, Y1: g.H},
		{X0: plate.X0 + 40, Y0: plate.Y0, X1: plate.X1, Y1: plate.Y0 + 70},
		plate,
	} {
		want := referenceCircles(g, region, p)
		for _, n := range []int{8, 1, 3, 2} {
			got := hough.CirclesWorkers(g, region, p, &scratch, n)
			sameCircles(t, fmt.Sprintf("region %d %+v, %d workers", i, region, n), got, want)
			if left := hough.VotesLeft(&scratch); left != 0 {
				t.Fatalf("region %d %+v, %d workers: %d vote cells left nonzero", i, region, n, left)
			}
		}
	}
}

// TestCirclesMatchReferenceOnEdgeRegions checks degenerate and clamped
// regions: one pixel wide or tall through a column or row of well centers,
// and regions that run past the image border, where Sobel is zero.
func TestCirclesMatchReferenceOnEdgeRegions(t *testing.T) {
	g, _ := plateFrame(7)
	geom := render.Default()
	cx, cy := geom.WellCenter(3, 5)
	x, y := int(cx), int(cy)
	regions := []hough.Rect{
		{X0: x, Y0: 0, X1: x + 1, Y1: g.H},
		{X0: 0, Y0: y, X1: g.W, Y1: y + 1},
		{X0: x, Y0: y, X1: x + 1, Y1: y + 1},
		{X0: -40, Y0: -40, X1: 140, Y1: 160},
		{X0: 400, Y0: 300, X1: g.W + 50, Y1: g.H + 50},
		{X0: -5, Y0: -5, X1: g.W + 5, Y1: g.H + 5},
		{X0: 0, Y0: 0, X1: 2, Y1: 2},
		{X0: g.W - 1, Y0: g.H - 1, X1: g.W, Y1: g.H},
	}
	p := wellParams()
	p.MinSupport = 0 // every cell with 3 votes is a candidate
	found := 0
	var scratch hough.Scratch
	for _, region := range regions {
		want := referenceCircles(g, region, p)
		found += len(want)
		for _, n := range workerCounts {
			got := hough.CirclesWorkers(g, region, p, &scratch, n)
			sameCircles(t, fmt.Sprintf("region %+v, %d workers", region, n), got, want)
		}
	}
	if found == 0 {
		t.Fatal("no region yielded a circle; the comparison is vacuous")
	}
}
