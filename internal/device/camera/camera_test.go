package camera

import (
	"context"
	"testing"

	"colormatch/internal/device"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/wei"
)

func setup(t *testing.T, seed int64) (*Module, *device.World, *sim.SimClock) {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, 2)
	return New("camera", world, sim.NewRNG(seed)), world, clock
}

func TestTakePictureRequiresPlate(t *testing.T) {
	m, _, _ := setup(t, 1)
	if _, err := m.Act(context.Background(), "take_picture", nil); err == nil {
		t.Fatal("pictured empty mount")
	}
}

func TestTakePictureReturnsDecodablePNG(t *testing.T) {
	m, world, clock := setup(t, 2)
	p, _ := world.TakeNewPlate(device.LocCamera)
	if err := p.Dispense(labware.WellAt(0), []float64{60, 60, 60, 95}); err != nil {
		t.Fatal(err)
	}
	start := clock.Now()
	res, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(start) <= 0 {
		t.Fatal("exposure took no time")
	}
	frame, err := DecodeFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	img, err := vision.DecodePNG(frame)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != m.Geometry().ImgW {
		t.Fatalf("frame width %d", img.Bounds().Dx())
	}
	if res["plate_id"] != p.ID || res["wells_used"] != 1.0 {
		t.Fatalf("metadata = %v", res)
	}
}

func TestFramesDifferUnderNoise(t *testing.T) {
	m, world, _ := setup(t, 3)
	world.TakeNewPlate(device.LocCamera)
	r1, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Act(context.Background(), "take_picture", nil)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := DecodeFrame(r1)
	f2, _ := DecodeFrame(r2)
	if string(f1) == string(f2) {
		t.Fatal("two exposures produced identical frames (no noise?)")
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	if _, err := DecodeFrame(wei.Result{}); err == nil {
		t.Fatal("missing image accepted")
	}
	if _, err := DecodeFrame(wei.Result{"image_png": 42}); err == nil {
		t.Fatal("non-string image accepted")
	}
	if _, err := DecodeFrame(wei.Result{"image_png": "!!!not base64!!!"}); err == nil {
		t.Fatal("bad base64 accepted")
	}
}

func TestCameraDriftIsBoundedAndAnalyzable(t *testing.T) {
	// Across many frames the drift must stay within what the marker-based
	// localization recovers: every frame stays analyzable.
	m, world, _ := setup(t, 4)
	p, _ := world.TakeNewPlate(device.LocCamera)
	for i := 0; i < 24; i++ {
		if err := p.Dispense(labware.WellAt(i), []float64{70, 50, 60, 95}); err != nil {
			t.Fatal(err)
		}
	}
	analyzer := vision.NewAnalyzer()
	for i := 0; i < 10; i++ {
		res, err := m.Act(context.Background(), "take_picture", nil)
		if err != nil {
			t.Fatal(err)
		}
		frame, _ := DecodeFrame(res)
		img, err := vision.DecodePNG(frame)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := analyzer.Analyze(img); err != nil {
			t.Fatalf("frame %d unanalyzable: %v", i, err)
		}
	}
}
