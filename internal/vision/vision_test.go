package vision

import (
	"bytes"
	"errors"
	"image"
	"image/color/palette"
	"image/png"
	"math"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/color/mix"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/render"
)

// buildScene renders a plate with the given per-well dye fractions; nil
// entries are empty wells.
func buildScene(t *testing.T, fractions [][]float64, jx, jy float64, rng *sim.RNG) (*render.Scene, []color.RGB8) {
	t.Helper()
	model := mix.NewModel()
	sensor := mix.IdealSensor()
	s := render.NewScene()
	s.JitterX, s.JitterY = jx, jy
	var ideal []color.RGB8
	for i, f := range fractions {
		if f == nil {
			ideal = append(ideal, color.RGB8{})
			continue
		}
		c := sensor.Observe(model.MixFractions(f))
		s.WellColor[i] = c
		s.Filled[i] = true
		ideal = append(ideal, c)
	}
	return s, ideal
}

func strongFractions(n int) [][]float64 {
	out := make([][]float64, labware.PlateWells)
	mixes := [][]float64{
		{0.6, 0.1, 0.1, 0.2},
		{0.1, 0.6, 0.1, 0.2},
		{0.1, 0.1, 0.6, 0.2},
		{0.2, 0.2, 0.2, 0.4},
	}
	for i := 0; i < n && i < labware.PlateWells; i++ {
		out[i] = mixes[i%len(mixes)]
	}
	return out
}

func TestAnalyzeFullPlate(t *testing.T) {
	rng := sim.NewRNG(1)
	scene, ideal := buildScene(t, strongFractions(96), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	res, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.Marker.ID != scene.MarkerID {
		t.Fatalf("marker id %d", res.Marker.ID)
	}
	if res.CirclesFound < 60 {
		t.Fatalf("only %d circles found on a full dark plate", res.CirclesFound)
	}
	// Every filled well's sampled color must be close to the ideal liquid
	// color (vignette + noise allow a few counts of error).
	worst := 0.0
	for i := 0; i < 96; i++ {
		if d := color.EuclideanRGB(res.WellColors[i], ideal[i]); d > worst {
			worst = d
		}
	}
	if worst > 12 {
		t.Fatalf("worst well color error %.1f", worst)
	}
}

func TestAnalyzeWithCameraJitter(t *testing.T) {
	// The camera shifted between runs; marker-based localization must
	// recover well positions.
	rng := sim.NewRNG(2)
	scene, ideal := buildScene(t, strongFractions(96), 7, -5, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	res, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 96; i += 13 {
		if d := color.EuclideanRGB(res.WellColors[i], ideal[i]); d > 12 {
			t.Fatalf("well %d color error %.1f after jitter", i, d)
		}
	}
	// Predicted centers must track the jitter.
	wx, wy := scene.Geom.WellCenter(0, 0)
	gx, gy := res.WellCenters[0][0], res.WellCenters[0][1]
	if math.Hypot(gx-(wx+7), gy-(wy-5)) > 2.5 {
		t.Fatalf("A1 predicted at (%.1f,%.1f), want ~(%.1f,%.1f)", gx, gy, wx+7, wy-5)
	}
}

func TestAnalyzePartialPlateRecoversMissedWells(t *testing.T) {
	// Only 24 wells filled (2 rows): Hough finds those; grid alignment must
	// still predict centers for empty wells near their true positions.
	rng := sim.NewRNG(3)
	scene, _ := buildScene(t, strongFractions(24), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	res, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	if res.CirclesFound < 15 {
		t.Fatalf("found %d circles", res.CirclesFound)
	}
	// Check prediction for well H12 (never filled, never detected).
	wx, wy := scene.Geom.WellCenter(7, 11)
	gx, gy := res.WellCenters[95][0], res.WellCenters[95][1]
	// Extrapolating 6 rows beyond a 2-row fit amplifies sub-pixel noise;
	// anything well inside the 11.9px well radius keeps sampling correct.
	if math.Hypot(gx-wx, gy-wy) > 5 {
		t.Fatalf("H12 predicted at (%.1f,%.1f), want ~(%.1f,%.1f)", gx, gy, wx, wy)
	}
}

func TestAnalyzeLightWellsStillSampled(t *testing.T) {
	// A plate of very light mixtures: many Hough misses are expected, but
	// the grid fallback must still sample every well somewhere sensible.
	rng := sim.NewRNG(4)
	fr := make([][]float64, labware.PlateWells)
	for i := 0; i < 96; i++ {
		fr[i] = []float64{0.01, 0.01, 0.02, 0.0} // nearly clear liquid
	}
	scene, ideal := buildScene(t, fr, 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	res, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for i := 0; i < 96; i++ {
		if color.EuclideanRGB(res.WellColors[i], ideal[i]) > 18 {
			bad++
		}
	}
	if bad > 5 {
		t.Fatalf("%d wells sampled badly on light plate (circles=%d)", bad, res.CirclesFound)
	}
}

func TestAnalyzeNoMarker(t *testing.T) {
	rng := sim.NewRNG(5)
	scene, _ := buildScene(t, strongFractions(8), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	// Erase the marker area.
	for y := 0; y < 140; y++ {
		for x := 0; x < 120; x++ {
			i := img.PixOffset(x, y)
			img.Pix[i], img.Pix[i+1], img.Pix[i+2] = 228, 227, 224
		}
	}
	if _, err := a.Analyze(img); !errors.Is(err, ErrNoMarker) {
		t.Fatalf("err = %v, want ErrNoMarker", err)
	}
}

func TestPNGRoundTrip(t *testing.T) {
	rng := sim.NewRNG(6)
	scene, _ := buildScene(t, strongFractions(16), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, nil)
	data, err := EncodePNG(img)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePNG(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bounds() != img.Bounds() {
		t.Fatalf("bounds changed: %v vs %v", back.Bounds(), img.Bounds())
	}
	for i := range img.Pix {
		if img.Pix[i] != back.Pix[i] {
			t.Fatal("PNG round trip not lossless")
		}
	}
	if _, err := DecodePNG([]byte("not a png")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestAnalyzerDeterministicOnSameImage(t *testing.T) {
	rng := sim.NewRNG(7)
	scene, _ := buildScene(t, strongFractions(48), 0, 0, rng)
	a := NewAnalyzer()
	img := scene.Render(a.Dict, rng.Derive("px"))
	r1, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	if r1.WellColors != r2.WellColors {
		t.Fatal("analysis nondeterministic")
	}
}

// claimsAlpha hides an opaque NRGBA image's opacity from png.Encode, which
// then writes an alpha channel that decodes to an opaque *image.NRGBA.
type claimsAlpha struct{ *image.NRGBA }

func (claimsAlpha) Opaque() bool { return false }

// TestDecodeFastPathMatchesSlowPath decodes representative PNG payloads —
// opaque truecolor (decodes to *image.RGBA, returned as is), opaque NRGBA
// (rows copied), NRGBA with partial alpha, and a paletted image (neither
// fast path applies) — and checks the fast paths produce byte-identical
// output to the generic At/Set conversion.
func TestDecodeFastPathMatchesSlowPath(t *testing.T) {
	rng := sim.NewRNG(8)
	scene, _ := buildScene(t, strongFractions(32), 0, 0, rng)
	a := NewAnalyzer()
	opaque, err := EncodePNG(scene.Render(a.Dict, rng.Derive("px")))
	if err != nil {
		t.Fatal(err)
	}

	nrgba := image.NewNRGBA(image.Rect(0, 0, 61, 37))
	for i := range nrgba.Pix {
		nrgba.Pix[i] = uint8(rng.Intn(256))
	}
	var nbuf bytes.Buffer
	if err := png.Encode(&nbuf, nrgba); err != nil {
		t.Fatal(err)
	}

	opaqueN := image.NewNRGBA(image.Rect(0, 0, 29, 13))
	for i := range opaqueN.Pix {
		opaqueN.Pix[i] = uint8(rng.Intn(256))
	}
	for i := 3; i < len(opaqueN.Pix); i += 4 {
		opaqueN.Pix[i] = 255
	}
	var obuf bytes.Buffer
	if err := png.Encode(&obuf, claimsAlpha{opaqueN}); err != nil {
		t.Fatal(err)
	}

	pal := image.NewPaletted(image.Rect(0, 0, 40, 25), palette.Plan9)
	for i := range pal.Pix {
		pal.Pix[i] = uint8(rng.Intn(len(palette.Plan9)))
	}
	var pbuf bytes.Buffer
	if err := png.Encode(&pbuf, pal); err != nil {
		t.Fatal(err)
	}

	for name, data := range map[string][]byte{
		"opaque-rgba":  opaque,
		"opaque-nrgba": obuf.Bytes(),
		"nrgba-alpha":  nbuf.Bytes(),
		"paletted":     pbuf.Bytes(),
	} {
		got, err := DecodePNG(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, err := png.Decode(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b := src.Bounds()
		want := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
		slowConvert(want, src, b)
		if got.Bounds() != want.Bounds() {
			t.Fatalf("%s: bounds %v vs %v", name, got.Bounds(), want.Bounds())
		}
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%s: fast path diverges from At/Set conversion at byte %d", name, i)
			}
		}
	}
}
