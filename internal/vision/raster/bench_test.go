package raster

import (
	"testing"

	"colormatch/internal/color"
)

// Hot-loop primitives, benchmarked at the 320×240 frame size the synthetic
// camera produces. Run with -benchmem: the *Into variants must report zero
// allocations in steady state (see alloc_test.go for the hard assertions).

func benchFrame() *Gray {
	img := NewRGBA(320, 240, color.RGB8{R: 200, G: 190, B: 180})
	FillCircle(img, 160, 120, 40, color.RGB8{R: 40, G: 60, B: 80})
	g := &Gray{}
	FromRGBAInto(g, img)
	return g
}

func BenchmarkFromRGBAInto(b *testing.B) {
	img := NewRGBA(320, 240, color.RGB8{R: 200, G: 190, B: 180})
	var g Gray
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromRGBAInto(&g, img)
	}
}

func BenchmarkMeanDisk(b *testing.B) {
	img := NewRGBA(320, 240, color.RGB8{R: 90, G: 120, B: 150})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MeanDisk(img, 160, 120, 11)
	}
}

func BenchmarkFillCircle(b *testing.B) {
	img := NewRGBA(320, 240, color.RGB8{R: 240, G: 240, B: 240})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillCircle(img, 160, 120, 40, color.RGB8{R: 40, G: 60, B: 80})
	}
}

func BenchmarkComponentsScratch(b *testing.B) {
	g := benchFrame()
	mask := ThresholdInto(nil, g, Otsu(g))
	var s ComponentScratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ComponentsScratch(mask, g.W, 64, &s)
	}
}
