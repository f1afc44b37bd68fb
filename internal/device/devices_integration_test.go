package device_test

// Integration tests exercising the five instrument simulators together
// against one shared world, via the wei.Module interface only — the same
// surface the engine uses.

import (
	"context"
	"strings"
	"testing"
	"time"

	"colormatch/internal/color"
	"colormatch/internal/device"
	"colormatch/internal/device/barty"
	"colormatch/internal/device/camera"
	"colormatch/internal/device/ot2"
	"colormatch/internal/device/pf400"
	"colormatch/internal/device/sciclops"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision"
	"colormatch/internal/wei"
)

type cell struct {
	clock *sim.SimClock
	world *device.World
	sci   *sciclops.Module
	arm   *pf400.Module
	ot    *ot2.Module
	bar   *barty.Module
	cam   *camera.Module
}

func newCell(t *testing.T, seed int64, stock int) *cell {
	t.Helper()
	clock := sim.NewSimClockAt(sim.Epoch)
	world := device.NewWorld(clock, stock)
	rng := sim.NewRNG(seed)
	return &cell{
		clock: clock,
		world: world,
		sci:   sciclops.New("sciclops", world, rng.Derive("sciclops")),
		arm:   pf400.New("pf400", world, rng.Derive("pf400")),
		ot:    ot2.New("ot2", world, rng.Derive("ot2")),
		bar:   barty.New("barty", world, rng.Derive("barty")),
		cam:   camera.New("camera", world, rng.Derive("camera")),
	}
}

func act(t *testing.T, m wei.Module, action string, args wei.Args) wei.Result {
	t.Helper()
	res, err := m.Act(context.Background(), action, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", m.Name(), action, err)
	}
	return res
}

func TestSciclopsGetPlateAndStock(t *testing.T) {
	c := newCell(t, 1, 2)
	res := act(t, c.sci, "get_plate", nil)
	if res["plate_id"] != "plate-001" {
		t.Fatalf("res = %#v", res)
	}
	st := act(t, c.sci, "status", nil)
	if st["plates_remaining"] != 1.0 {
		t.Fatalf("status = %#v", st)
	}
	if c.clock.Now().Sub(sim.Epoch) < 25*time.Second {
		t.Fatal("get_plate took no time")
	}
	// Staging onto an occupied exchange fails.
	if _, err := c.sci.Act(context.Background(), "get_plate", nil); err == nil {
		t.Fatal("double get_plate succeeded")
	}
}

func TestPF400TransferMovesPlate(t *testing.T) {
	c := newCell(t, 2, 1)
	act(t, c.sci, "get_plate", nil)
	act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocCamera})
	if _, err := c.world.PlateAt(device.LocCamera); err != nil {
		t.Fatal(err)
	}
	// Transfer without a plate fails.
	if _, err := c.arm.Act(context.Background(), "transfer",
		wei.Args{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck}); err == nil {
		t.Fatal("empty transfer succeeded")
	}
	// Missing args fail.
	if _, err := c.arm.Act(context.Background(), "transfer", wei.Args{"source": device.LocCamera}); err == nil {
		t.Fatal("missing target accepted")
	}
}

func TestTransferDurationModel(t *testing.T) {
	short := pf400.TransferDuration(device.LocSciclopsExchange, device.LocCamera)
	long := pf400.TransferDuration(device.LocSciclopsExchange, device.LocTrash)
	if long <= short {
		t.Fatalf("rail distance ignored: %v vs %v", short, long)
	}
	camOt2 := pf400.TransferDuration(device.LocCamera, device.LocOT2Deck)
	if camOt2 != 42*time.Second {
		t.Fatalf("camera->ot2 = %v, calibration expects 42s", camOt2)
	}
}

func TestOT2RunProtocolDispensesAndDraws(t *testing.T) {
	c := newCell(t, 3, 1)
	act(t, c.sci, "get_plate", nil)
	act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck})
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})

	orders := []ot2.WellOrder{
		{Well: labware.WellAddress{Row: 0, Col: 0}, Volumes: []float64{100, 50, 75, 50}},
		{Well: labware.WellAddress{Row: 0, Col: 1}, Volumes: []float64{0, 100, 100, 75}},
	}
	res := act(t, c.ot, "run_protocol", wei.Args{"protocol": "mix_colors", "wells": ot2.EncodeWells(orders)})
	mixed, _ := res["wells_mixed"].([]any)
	if len(mixed) != 2 || mixed[0] != "A1" || mixed[1] != "A2" {
		t.Fatalf("wells_mixed = %#v", mixed)
	}

	plate, err := c.world.PlateAt(device.LocOT2Deck)
	if err != nil {
		t.Fatal(err)
	}
	got := plate.Contents(labware.WellAddress{Row: 0, Col: 0})
	want := []float64{100, 50, 75, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A1 contents = %v", got)
		}
	}
	rs, _ := c.world.Reservoirs("ot2")
	if v := rs[0].Volume(); v != device.ReservoirCapacityUL-100 {
		t.Fatalf("cyan reservoir = %v", v)
	}
	if v := rs[1].Volume(); v != device.ReservoirCapacityUL-150 {
		t.Fatalf("magenta reservoir = %v", v)
	}
}

func TestOT2FailsWithoutPlateOrLiquid(t *testing.T) {
	c := newCell(t, 4, 1)
	orders := ot2.EncodeWells([]ot2.WellOrder{{Well: labware.WellAddress{}, Volumes: []float64{10, 10, 10, 10}}})
	if _, err := c.ot.Act(context.Background(), "run_protocol",
		wei.Args{"wells": orders}); err == nil || !strings.Contains(err.Error(), "no plate") {
		t.Fatalf("no-plate err = %v", err)
	}
	// Plate present but reservoirs empty.
	act(t, c.sci, "get_plate", nil)
	act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck})
	if _, err := c.ot.Act(context.Background(), "run_protocol",
		wei.Args{"wells": orders}); err == nil || !strings.Contains(err.Error(), "insufficient") {
		t.Fatalf("empty-reservoir err = %v", err)
	}
}

func TestOT2TimingScalesWithBatch(t *testing.T) {
	mk := func(n int) time.Duration {
		c := newCell(t, 5, 1)
		act(t, c.sci, "get_plate", nil)
		act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck})
		act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
		start := c.clock.Now()
		var orders []ot2.WellOrder
		for i := 0; i < n; i++ {
			orders = append(orders, ot2.WellOrder{Well: labware.WellAt(i), Volumes: []float64{50, 50, 50, 125}})
		}
		act(t, c.ot, "run_protocol", wei.Args{"wells": ot2.EncodeWells(orders)})
		return c.clock.Now().Sub(start)
	}
	d1, d8 := mk(1), mk(8)
	// Per-well marginal cost must dominate: d8 ≈ setup + 8·well.
	if d8 < 6*d1/2 {
		t.Fatalf("batch timing off: d1=%v d8=%v", d1, d8)
	}
	// Calibration: one well ≈ 145s ± jitter.
	if d1 < 135*time.Second || d1 > 155*time.Second {
		t.Fatalf("B=1 protocol duration %v, want ~145s", d1)
	}
}

func TestBartyFillDrainRefill(t *testing.T) {
	c := newCell(t, 6, 1)
	rs, _ := c.world.Reservoirs("ot2")
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
	for _, r := range rs {
		if r.Volume() != device.ReservoirCapacityUL {
			t.Fatalf("%s not full after fill: %v", r.Name, r.Volume())
		}
	}
	act(t, c.bar, "drain_colors", wei.Args{"module": "ot2"})
	for _, r := range rs {
		if r.Volume() != 0 {
			t.Fatalf("%s not empty after drain: %v", r.Name, r.Volume())
		}
	}
	rs[0].Fill(500)
	act(t, c.bar, "refill_colors", wei.Args{"module": "ot2"})
	for _, r := range rs {
		if r.Volume() != device.ReservoirCapacityUL {
			t.Fatalf("%s not full after refill: %v", r.Name, r.Volume())
		}
	}
	if _, err := c.bar.Act(context.Background(), "fill_colors", wei.Args{"module": "ghost"}); err == nil {
		t.Fatal("unknown module accepted")
	}
	if _, err := c.bar.Act(context.Background(), "fill_colors", nil); err == nil {
		t.Fatal("missing module arg accepted")
	}
}

func TestBartyFillDurationScalesWithDeficit(t *testing.T) {
	c := newCell(t, 7, 1)
	start := c.clock.Now()
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
	fullFill := c.clock.Now().Sub(start)
	// 25000µL at 250µL/s = 100s + setup.
	if fullFill < 90*time.Second || fullFill > 130*time.Second {
		t.Fatalf("full fill took %v", fullFill)
	}
	start = c.clock.Now()
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
	topOff := c.clock.Now().Sub(start)
	if topOff >= fullFill/2 {
		t.Fatalf("top-off fill took %v (full %v)", topOff, fullFill)
	}
}

func TestCameraCapturesAnalyzableFrame(t *testing.T) {
	c := newCell(t, 8, 1)
	act(t, c.sci, "get_plate", nil)
	act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocOT2Deck})
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
	var orders []ot2.WellOrder
	for i := 0; i < 12; i++ {
		orders = append(orders, ot2.WellOrder{Well: labware.WellAt(i), Volumes: []float64{80, 40, 40, 115}})
	}
	act(t, c.ot, "run_protocol", wei.Args{"wells": ot2.EncodeWells(orders)})
	act(t, c.arm, "transfer", wei.Args{"source": device.LocOT2Deck, "target": device.LocCamera})

	res := act(t, c.cam, "take_picture", nil)
	frame, err := camera.DecodeFrame(res)
	if err != nil {
		t.Fatal(err)
	}
	img, err := vision.DecodePNG(frame)
	if err != nil {
		t.Fatal(err)
	}
	analyzer := vision.NewAnalyzer()
	analysis, err := analyzer.Analyze(img)
	if err != nil {
		t.Fatal(err)
	}
	// The analyzed color of well A1 must match the physics prediction.
	lin, err := c.world.Model.MixVolumes([]float64{80, 40, 40, 115})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against an ideal-sensor render of the same liquid: allow for
	// sensor gain, vignette and noise.
	approx := analysis.WellColors[0]
	ideal := lin.SRGB8()
	if d := color.EuclideanRGB(approx, ideal); d > 20 {
		t.Fatalf("analyzed A1 %+v vs physics %+v (d=%.1f)", approx, ideal, d)
	}
}

func TestCameraRequiresPlate(t *testing.T) {
	c := newCell(t, 9, 1)
	if _, err := c.cam.Act(context.Background(), "take_picture", nil); err == nil {
		t.Fatal("pictured an empty mount")
	}
}

func TestParseWellsFormats(t *testing.T) {
	// HTTP-JSON shape: []any of map[string]any with float64 volumes.
	jsonShape := []any{
		map[string]any{"well": "B3", "volumes": []any{1.0, 2.0, 3.0, 4.0}},
	}
	orders, err := ot2.ParseWells(jsonShape, 4)
	if err != nil {
		t.Fatal(err)
	}
	if orders[0].Well.String() != "B3" || orders[0].Volumes[3] != 4 {
		t.Fatalf("orders = %+v", orders)
	}
	// Error shapes.
	bad := []any{
		"nope",
		[]any{"x"},
		[]any{map[string]any{"volumes": []any{1.0, 2.0, 3.0, 4.0}}},
		[]any{map[string]any{"well": "Z9", "volumes": []any{1.0, 2.0, 3.0, 4.0}}},
		[]any{map[string]any{"well": "A1"}},
		[]any{map[string]any{"well": "A1", "volumes": []any{1.0}}},
		[]any{map[string]any{"well": "A1", "volumes": []any{1.0, 2.0, 3.0, "x"}}},
		[]any{map[string]any{"well": "A1", "volumes": []any{1.0, 2.0, 3.0, -4.0}}},
	}
	for i, b := range bad {
		if _, err := ot2.ParseWells(b, 4); err == nil {
			t.Errorf("bad shape %d accepted", i)
		}
	}
}

func TestFullMixCycleTiming(t *testing.T) {
	// One full B=1 iteration (transfer, mix 1 well, transfer, photo) must
	// land near the paper's 231s/iteration calibration.
	c := newCell(t, 10, 1)
	act(t, c.sci, "get_plate", nil)
	act(t, c.arm, "transfer", wei.Args{"source": device.LocSciclopsExchange, "target": device.LocCamera})
	act(t, c.bar, "fill_colors", wei.Args{"module": "ot2"})
	start := c.clock.Now()
	act(t, c.arm, "transfer", wei.Args{"source": device.LocCamera, "target": device.LocOT2Deck})
	act(t, c.ot, "run_protocol", wei.Args{"wells": ot2.EncodeWells([]ot2.WellOrder{
		{Well: labware.WellAt(0), Volumes: []float64{50, 50, 50, 125}},
	})})
	act(t, c.arm, "transfer", wei.Args{"source": device.LocOT2Deck, "target": device.LocCamera})
	act(t, c.cam, "take_picture", nil)
	iter := c.clock.Now().Sub(start)
	if iter < 215*time.Second || iter > 250*time.Second {
		t.Fatalf("B=1 iteration took %v, want ~231s", iter)
	}
}
