package vision

import (
	"image"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/render"
)

func benchScene(b *testing.B) (*render.Scene, *Analyzer, *image.RGBA) {
	b.Helper()
	model := mix.NewModel()
	sensor := mix.IdealSensor()
	s := render.NewScene()
	for i := 0; i < labware.PlateWells; i++ {
		s.WellColor[i] = sensor.Observe(model.MixFractions([]float64{0.3, 0.2, 0.3, 0.2}))
		s.Filled[i] = true
	}
	a := NewAnalyzer()
	img := s.Render(a.Dict, sim.NewRNG(1))
	return s, a, img
}

// BenchmarkRenderScene measures the synthetic camera's frame cost.
func BenchmarkRenderScene(b *testing.B) {
	s, a, _ := benchScene(b)
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Render(a.Dict, rng)
	}
}

// BenchmarkAnalyze measures the full §2.4 pipeline per frame: marker
// detection, circle Hough, grid fit, well sampling.
func BenchmarkAnalyze(b *testing.B) {
	_, a, img := benchScene(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodePNG measures the camera's frame serialization; its
// throughput counts the PNG bytes written.
func BenchmarkEncodePNG(b *testing.B) {
	_, _, img := benchScene(b)
	data, err := EncodePNG(img)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodePNG(img); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkColor color.RGB8

// BenchmarkDecodePNG measures the application's frame parsing; its
// throughput counts the PNG bytes read.
func BenchmarkDecodePNG(b *testing.B) {
	_, _, img := benchScene(b)
	data, err := EncodePNG(img)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := DecodePNG(data)
		if err != nil {
			b.Fatal(err)
		}
		sinkColor = color.RGB8{R: out.Pix[0]}
	}
}
