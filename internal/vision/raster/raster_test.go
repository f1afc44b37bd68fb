package raster

import (
	"image"
	"math"
	"testing"

	"colormatch/internal/color"
)

// newGray returns a zeroed w×h image.
func newGray(w, h int) *Gray {
	return &Gray{W: w, H: h, Pix: make([]float64, w*h)}
}

// rgbAt reads the pixel at (x,y) as an 8-bit sRGB color.
func rgbAt(img *image.RGBA, x, y int) color.RGB8 {
	c := img.RGBAAt(x, y)
	return color.RGB8{R: c.R, G: c.G, B: c.B}
}

func TestGrayAtSetBounds(t *testing.T) {
	g := newGray(4, 3)
	g.Set(1, 2, 42)
	if g.At(1, 2) != 42 {
		t.Fatal("Set/At broken")
	}
	g.Set(-1, 0, 9)
	g.Set(4, 0, 9)
	if g.At(-1, 0) != 0 || g.At(0, 3) != 0 {
		t.Fatal("out-of-bounds reads should be 0")
	}
}

func TestFromRGBALuma(t *testing.T) {
	img := NewRGBA(2, 1, color.RGB8{R: 255, G: 255, B: 255})
	FillRect(img, 1, 0, 2, 1, color.RGB8{R: 255, G: 0, B: 0})
	var g Gray
	FromRGBAInto(&g, img)
	if math.Abs(g.At(0, 0)-255) > 0.5 {
		t.Fatalf("white luma = %v", g.At(0, 0))
	}
	if math.Abs(g.At(1, 0)-0.299*255) > 0.5 {
		t.Fatalf("red luma = %v", g.At(1, 0))
	}
}

func TestOtsuSeparatesBimodal(t *testing.T) {
	g := newGray(100, 10)
	for i := range g.Pix {
		if i%2 == 0 {
			g.Pix[i] = 30
		} else {
			g.Pix[i] = 220
		}
	}
	th := Otsu(g)
	if th < 30 || th >= 220 {
		t.Fatalf("Otsu threshold %v not between modes", th)
	}
	mask := ThresholdInto(nil, g, th)
	dark := 0
	for _, m := range mask {
		if m {
			dark++
		}
	}
	if dark != len(g.Pix)/2 {
		t.Fatalf("dark count %d, want %d", dark, len(g.Pix)/2)
	}
}

func TestOtsuUniformImage(t *testing.T) {
	g := newGray(10, 10)
	for i := range g.Pix {
		g.Pix[i] = 128
	}
	// Should not panic; any threshold is acceptable.
	_ = Otsu(g)
}

func TestComponentsFindsSeparateBlobs(t *testing.T) {
	// Two 3x3 blobs separated by a gap, plus a single noise pixel.
	w, h := 20, 10
	mask := make([]bool, w*h)
	set := func(x, y int) { mask[y*w+x] = true }
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			set(2+dx, 2+dy)
			set(10+dx, 5+dy)
		}
	}
	set(18, 1) // noise
	comps := ComponentsScratch(mask, w, 2, &ComponentScratch{})
	if len(comps) != 2 {
		t.Fatalf("found %d components, want 2 (noise filtered)", len(comps))
	}
	c := comps[0]
	if c.W() != 3 || c.H() != 3 || c.Count != 9 {
		t.Fatalf("component 0 = %+v", c)
	}
}

func TestComponentsDiagonalNotConnected(t *testing.T) {
	w := 4
	mask := make([]bool, w*4)
	mask[0] = true   // (0,0)
	mask[w+1] = true // (1,1) diagonal neighbor
	comps := ComponentsScratch(mask, w, 1, &ComponentScratch{})
	if len(comps) != 2 {
		t.Fatalf("diagonal pixels merged: %d components", len(comps))
	}
}

func TestComponentsLargeBlobNoStackOverflow(t *testing.T) {
	w, h := 300, 300
	mask := make([]bool, w*h)
	for i := range mask {
		mask[i] = true
	}
	comps := ComponentsScratch(mask, w, 1, &ComponentScratch{})
	if len(comps) != 1 || comps[0].Count != w*h {
		t.Fatalf("full-frame component wrong: %+v", comps)
	}
}

func TestFillCircleAndMeanDisk(t *testing.T) {
	img := NewRGBA(50, 50, color.RGB8{R: 255, G: 255, B: 255})
	c := color.RGB8{R: 10, G: 200, B: 30}
	FillCircle(img, 25, 25, 10, c)
	got := MeanDisk(img, 25, 25, 5)
	if got != c {
		t.Fatalf("MeanDisk inside circle = %+v, want %+v", got, c)
	}
	center := rgbAt(img, 25, 25)
	if center != c {
		t.Fatalf("center pixel = %+v", center)
	}
	corner := rgbAt(img, 0, 0)
	if corner != (color.RGB8{R: 255, G: 255, B: 255}) {
		t.Fatalf("corner pixel = %+v", corner)
	}
}

func TestMeanDiskMixesColors(t *testing.T) {
	img := NewRGBA(10, 10, color.RGB8{})
	FillRect(img, 0, 0, 10, 5, color.RGB8{R: 200, G: 200, B: 200})
	got := MeanDisk(img, 5, 5, 4)
	if got.R < 80 || got.R > 120 {
		t.Fatalf("half-dark mean = %+v, want ~100", got)
	}
}

func TestMeanDiskOutOfBounds(t *testing.T) {
	img := NewRGBA(10, 10, color.RGB8{R: 50, G: 60, B: 70})
	got := MeanDisk(img, 0, 0, 3)
	if got != (color.RGB8{R: 50, G: 60, B: 70}) {
		t.Fatalf("clipped mean = %+v", got)
	}
	if MeanDisk(img, -100, -100, 2) != (color.RGB8{}) {
		t.Fatal("fully out-of-bounds disk should be zero")
	}
}

func TestFillRectClipping(t *testing.T) {
	img := NewRGBA(5, 5, color.RGB8{})
	FillRect(img, -10, -10, 100, 100, color.RGB8{R: 255, G: 255, B: 255})
	if rgbAt(img, 4, 4) != (color.RGB8{R: 255, G: 255, B: 255}) {
		t.Fatal("clipped fill missed in-bounds pixel")
	}
}
