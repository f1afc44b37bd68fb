package aruco

import (
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/vision/raster"
)

// BenchmarkDetectScratch measures fiducial detection on a camera-sized
// frame, on one warm Scratch as the analyzer runs it frame after frame, so
// the mask and labeling buffers are allocated once, outside the timed loop.
func BenchmarkDetectScratch(b *testing.B) {
	img := raster.NewRGBA(640, 480, color.RGB8{R: 240, G: 240, B: 240})
	d := Default()
	d.Render(img, 0, 40, 60, 8)
	var g raster.Gray
	raster.FromRGBAInto(&g, img)
	var s Scratch
	d.DetectScratch(&g, &s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dets := d.DetectScratch(&g, &s); len(dets) != 1 {
			b.Fatalf("detections = %d", len(dets))
		}
	}
}

func BenchmarkGenerateDictionary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateDictionary(16)
	}
}
