package render

import (
	"fmt"
	"image"
	"math"
	"runtime"
	"testing"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/raster"
)

func TestDefaultGeometryIsSelfConsistent(t *testing.T) {
	g := Default()
	// Plate must fit in the frame.
	if g.PlateX+g.PlateW >= float64(g.ImgW) || g.PlateY+g.PlateH >= float64(g.ImgH) {
		t.Fatalf("plate exceeds frame: %+v", g)
	}
	// Last well (H12) must lie inside the plate.
	x, y := g.WellCenter(labware.PlateRows-1, labware.PlateCols-1)
	if x+g.WellRPx > g.PlateX+g.PlateW || y+g.WellRPx > g.PlateY+g.PlateH {
		t.Fatalf("H12 at (%v,%v) outside plate", x, y)
	}
	// Marker must not overlap the plate.
	mx, my := g.MarkerCenter()
	if mx > g.PlateX && my > g.PlateY {
		t.Fatalf("marker center (%v,%v) inside plate area", mx, my)
	}
}

func TestWellCenterSpacing(t *testing.T) {
	g := Default()
	x0, y0 := g.WellCenter(0, 0)
	x1, _ := g.WellCenter(0, 1)
	_, y1 := g.WellCenter(1, 0)
	if math.Abs((x1-x0)-g.PitchPx) > 1e-9 || math.Abs((y1-y0)-g.PitchPx) > 1e-9 {
		t.Fatal("well pitch wrong")
	}
}

func TestRenderDrawsLiquidColor(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0
	s.NoiseStd = 0
	want := color.RGB8{R: 50, G: 120, B: 200}
	s.WellColor[0] = want
	s.Filled[0] = true
	img := s.Render(aruco.Default(), nil)
	x, y := s.Geom.WellCenter(0, 0)
	got := raster.PixelRGB8(img, int(x), int(y))
	if got != want {
		t.Fatalf("well pixel %+v, want %+v", got, want)
	}
}

func TestRenderJitterMovesScene(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0
	s.NoiseStd = 0
	s.WellColor[0] = color.RGB8{R: 10, G: 10, B: 10}
	s.Filled[0] = true
	s.JitterX, s.JitterY = 9, 4
	img := s.Render(aruco.Default(), nil)
	x, y := s.Geom.WellCenter(0, 0)
	if got := raster.PixelRGB8(img, int(x+9), int(y+4)); got != (color.RGB8{R: 10, G: 10, B: 10}) {
		t.Fatalf("jittered well pixel %+v", got)
	}
}

func TestVignetteDarkensCorners(t *testing.T) {
	s := NewScene()
	s.IllumFalloff = 0.1
	s.NoiseStd = 0
	img := s.Render(aruco.Default(), nil)
	center := raster.PixelRGB8(img, s.Geom.ImgW/2, s.Geom.ImgH/2)
	corner := raster.PixelRGB8(img, 2, s.Geom.ImgH-3)
	if corner.R >= center.R {
		t.Fatalf("corner %d not darker than center %d", corner.R, center.R)
	}
}

func TestSetPlateFillsFromContents(t *testing.T) {
	p := labware.NewPlate("p1")
	if err := p.Dispense(labware.WellAt(0), []float64{50, 0, 0, 50}); err != nil {
		t.Fatal(err)
	}
	s := NewScene()
	s.SetPlate(p, func(vols []float64) (color.RGB8, bool) {
		total := 0.0
		for _, v := range vols {
			total += v
		}
		if total == 0 {
			return color.RGB8{}, false
		}
		return color.RGB8{R: 1, G: 2, B: 3}, true
	})
	if !s.Filled[0] || s.Filled[1] {
		t.Fatalf("Filled = %v %v", s.Filled[0], s.Filled[1])
	}
	if s.WellColor[0] != (color.RGB8{R: 1, G: 2, B: 3}) {
		t.Fatalf("WellColor = %+v", s.WellColor[0])
	}
}

func TestPlateRegionFromMarkerTracksJitter(t *testing.T) {
	g := Default()
	nomX, nomY := g.MarkerCenter()
	det := aruco.Detection{CX: nomX + 10, CY: nomY - 6, CellPx: g.MarkerCellPx}
	r := g.PlateRegionFromMarker(det)
	if r.X0 > int(g.PlateX+10) || r.X1 < int(g.PlateX+g.PlateW+10) {
		t.Fatalf("region %+v does not cover shifted plate", r)
	}
	seed := g.SeedFromMarker(det)
	ax, ay := g.WellCenter(0, 0)
	if math.Abs(seed.OX-(ax+10)) > 1e-9 || math.Abs(seed.OY-(ay-6)) > 1e-9 {
		t.Fatalf("seed (%v,%v), want (%v,%v)", seed.OX, seed.OY, ax+10, ay-6)
	}
	if math.Abs(seed.ColPitch-g.PitchPx) > 1e-9 {
		t.Fatalf("seed pitch %v", seed.ColPitch)
	}
}

func TestRenderNoiseIsSeedDeterministic(t *testing.T) {
	mk := func() []uint8 {
		s := NewScene()
		s.Filled[0] = true
		s.WellColor[0] = color.RGB8{R: 90, G: 90, B: 90}
		img := s.Render(aruco.Default(), sim.NewRNG(42))
		out := make([]uint8, len(img.Pix))
		copy(out, img.Pix)
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("render nondeterministic for same seed")
		}
	}
}

// referenceRender renders s by the definition: the noise-free raster, then,
// for every subpixel in row-major order, the vignette factor and one
// rng.NormFloat64 deviate, or no deviate when rng is nil.
func referenceRender(s *Scene, dict *aruco.Dictionary, rng *sim.RNG) *image.RGBA {
	flat := *s
	flat.IllumFalloff = 0
	img := flat.Render(dict, nil)
	w, h := s.Geom.ImgW, s.Geom.ImgH
	cx, cy := float64(w)/2, float64(h)/2
	rmax2 := cx*cx + cy*cy
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			factor := 1 - s.IllumFalloff*(dx*dx+dy*dy)/rmax2
			px := img.Pix[img.PixOffset(x, y):]
			for c := 0; c < 3; c++ {
				v := float64(px[c]) * factor
				if rng != nil {
					v += s.NoiseStd * rng.NormFloat64()
				}
				px[c] = uint8(max(0, min(255, v+0.5)))
			}
		}
	}
	return img
}

// TestRenderMatchesScalarReference pins the noise stream's order: Render must
// equal, byte for byte, the scalar loop drawing one deviate per subpixel, and
// leave the stream where that loop leaves it. The scenes cover a frame height
// that is not a whole number of noise chunks, no vignette, noise strong
// enough to clamp at both ends, and a vignette with no noise (a nil rng).
func TestRenderMatchesScalarReference(t *testing.T) {
	dict := aruco.Default()
	for i, tweak := range []func(*Scene){
		func(*Scene) {},
		func(s *Scene) { s.Geom.ImgH = 470 },
		func(s *Scene) { s.IllumFalloff = 0; s.JitterX, s.JitterY = -6, 5 },
		func(s *Scene) { s.NoiseStd = 60 },
		func(s *Scene) { s.NoiseStd, s.IllumFalloff = 0, 0.3 },
	} {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			s := NewScene()
			for w := 0; w < labware.PlateWells; w += 3 {
				s.Filled[w] = true
				s.WellColor[w] = color.RGB8{R: uint8(w * 2), G: 120, B: uint8(250 - w*2)}
			}
			tweak(s)
			seed := int64(40 + i)
			rng, ref := sim.NewRNG(seed), sim.NewRNG(seed)
			if s.NoiseStd == 0 {
				rng, ref = nil, nil
			}
			got := s.Render(dict, rng)
			want := referenceRender(s, dict, ref)
			for j := range want.Pix {
				if got.Pix[j] != want.Pix[j] {
					t.Fatalf("byte %d (pixel %d, row %d): Render %d, reference %d",
						j, j/4, j/want.Stride, got.Pix[j], want.Pix[j])
				}
			}
			if rng == nil {
				return
			}
			if a, b := rng.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("stream after Render yields %v, after the reference %v", a, b)
			}
		})
	}
}

// TestRenderLeavesNoGoroutine renders a campaign's worth of noisy frames and
// checks no noise producer outlives them. Render waits for the producer to
// close its channel, so only its exit can still be in flight.
func TestRenderLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScene()
	for i := 0; i < 32; i++ {
		s.Render(aruco.Default(), sim.NewRNG(int64(i)))
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after 32 renders, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
