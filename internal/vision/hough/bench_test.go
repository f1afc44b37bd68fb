package hough

import (
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/vision/raster"
)

// benchPlate returns a plate-sized grayscale frame with a realistic well
// count and the region around its wells.
func benchPlate() (*raster.Gray, Rect) {
	img := raster.NewRGBA(640, 480, color.RGB8{R: 245, G: 245, B: 245})
	for r := 0; r < 8; r++ {
		for c := 0; c < 12; c++ {
			raster.FillCircle(img, 180+float64(c)*31.5, 160+float64(r)*31.5, 11.9,
				color.RGB8{R: 90, G: 70, B: 110})
		}
	}
	var g raster.Gray
	raster.FromRGBAInto(&g, img)
	return &g, Rect{X0: 130, Y0: 120, X1: 600, Y1: 440}
}

// BenchmarkCirclesScratch measures the circle Hough transform over a
// plate-sized region with a realistic well count, on one warm Scratch as
// the analyzer runs it frame after frame, so the vote planes and rings
// are allocated once, outside the timed loop.
func BenchmarkCirclesScratch(b *testing.B) {
	g, region := benchPlate()
	p := DefaultParams()
	var s Scratch
	CirclesScratch(g, region, p, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CirclesScratch(g, region, p, &s)
	}
}
