package aruco

import (
	"image"
	"testing"

	"colormatch/internal/color"
	"colormatch/internal/sim"
	"colormatch/internal/vision/raster"
)

func TestRotate90FourTimesIsIdentity(t *testing.T) {
	for _, code := range []uint16{0x0001, 0xBEEF, 0x8421, 0xFFFF, 0} {
		r := code
		for i := 0; i < 4; i++ {
			r = rotate90(r)
		}
		if r != code {
			t.Fatalf("rotate90^4(%#x) = %#x", code, r)
		}
	}
}

func TestRotate90SingleBit(t *testing.T) {
	// Bit at (r,c)=(0,0) rotates to (0,3).
	got := rotate90(1 << 0)
	want := uint16(1 << 3)
	if got != want {
		t.Fatalf("rotate90(bit00) = %#x, want %#x", got, want)
	}
}

func TestGenerateDictionaryProperties(t *testing.T) {
	d := GenerateDictionary(16)
	if len(d.Codes) != 16 {
		t.Fatalf("%d codes", len(d.Codes))
	}
	for i, a := range d.Codes {
		if !selfDistinct(a) {
			t.Fatalf("code %d (%#x) not rotation-distinct", i, a)
		}
		for j, b := range d.Codes {
			if i == j {
				continue
			}
			if dH := hammingAnyRotation(a, b); dH < MinHamming {
				t.Fatalf("codes %d,%d at Hamming %d", i, j, dH)
			}
		}
	}
}

func TestGenerateDictionaryDeterministic(t *testing.T) {
	a, b := GenerateDictionary(8), GenerateDictionary(8)
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			t.Fatal("non-deterministic dictionary")
		}
	}
}

func TestMatchRotations(t *testing.T) {
	d := Default()
	for id, code := range d.Codes {
		rs := rotations(code)
		for rot, r := range rs {
			gotID, gotRot, ok := d.Match(r)
			if !ok || gotID != id || gotRot != rot {
				t.Fatalf("Match(rot %d of code %d) = (%d,%d,%v)", rot, id, gotID, gotRot, ok)
			}
		}
	}
}

func TestMatchRejectsGarbage(t *testing.T) {
	d := Default()
	// A code at distance >= MinHamming from everything should not match.
	// All-zero payload is degenerate and never in the dictionary.
	if _, _, ok := d.Match(0); ok {
		t.Fatal("matched all-black payload")
	}
}

func renderScene(t *testing.T, id int, x, y, cellPx int) *raster.Gray {
	t.Helper()
	img := raster.NewRGBA(320, 240, color.RGB8{R: 250, G: 250, B: 250})
	Default().Render(img, id, x, y, cellPx)
	return gray(img)
}

// gray converts a rendered frame the way the analyzer does.
func gray(img *image.RGBA) *raster.Gray {
	var g raster.Gray
	raster.FromRGBAInto(&g, img)
	return &g
}

func TestDetectCleanMarker(t *testing.T) {
	for _, id := range []int{0, 3, 7, 15} {
		g := renderScene(t, id, 60, 50, 8)
		dets := Default().DetectScratch(g, &Scratch{})
		if len(dets) != 1 {
			t.Fatalf("id %d: %d detections", id, len(dets))
		}
		det := dets[0]
		if det.ID != id || det.Rotation != 0 {
			t.Fatalf("id %d: detected id=%d rot=%d", id, det.ID, det.Rotation)
		}
		// Marker is 6 cells of 8px = 48px, so center at (60+24, 50+24).
		if det.CX < 82 || det.CX > 86 || det.CY < 72 || det.CY > 76 {
			t.Fatalf("center (%v,%v), want ~(84,74)", det.CX, det.CY)
		}
		if det.CellPx < 7 || det.CellPx > 9 {
			t.Fatalf("cellPx = %v", det.CellPx)
		}
	}
}

func TestDetectWithNoise(t *testing.T) {
	img := raster.NewRGBA(320, 240, color.RGB8{R: 245, G: 245, B: 245})
	Default().Render(img, 5, 100, 80, 8)
	rng := sim.NewRNG(11)
	// Add pixel noise.
	for i := 0; i < len(img.Pix); i += 4 {
		for c := 0; c < 3; c++ {
			v := float64(img.Pix[i+c]) + rng.Normal(0, 6)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img.Pix[i+c] = uint8(v)
		}
	}
	dets := Default().DetectScratch(gray(img), &Scratch{})
	if len(dets) != 1 || dets[0].ID != 5 {
		t.Fatalf("noisy detection failed: %+v", dets)
	}
}

func TestDetectIgnoresCircles(t *testing.T) {
	// Dark filled circles (wells) must not be reported as markers.
	img := raster.NewRGBA(320, 240, color.RGB8{R: 245, G: 245, B: 245})
	raster.FillCircle(img, 160, 120, 30, color.RGB8{R: 20, G: 20, B: 20})
	raster.FillCircle(img, 60, 60, 14, color.RGB8{R: 40, G: 10, B: 10})
	dets := Default().DetectScratch(gray(img), &Scratch{})
	if len(dets) != 0 {
		t.Fatalf("circles detected as markers: %+v", dets)
	}
}

func TestDetectEmptyImage(t *testing.T) {
	img := raster.NewRGBA(160, 120, color.RGB8{R: 250, G: 250, B: 250})
	if dets := Default().DetectScratch(gray(img), &Scratch{}); len(dets) != 0 {
		t.Fatalf("detections on blank image: %+v", dets)
	}
}

func TestBestPicksNearest(t *testing.T) {
	dets := []Detection{
		{ID: 1, CX: 10, CY: 10},
		{ID: 2, CX: 100, CY: 100},
	}
	got, ok := Best(dets, 90, 110)
	if !ok || got.ID != 2 {
		t.Fatalf("Best = %+v, %v", got, ok)
	}
	if _, ok := Best(nil, 0, 0); ok {
		t.Fatal("Best on empty slice returned ok")
	}
}
