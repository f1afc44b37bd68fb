package labware

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestWellAddressString(t *testing.T) {
	cases := map[WellAddress]string{
		{0, 0}:  "A1",
		{0, 11}: "A12",
		{7, 0}:  "H1",
		{7, 11}: "H12",
		{2, 6}:  "C7",
	}
	for addr, want := range cases {
		if got := addr.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", addr, got, want)
		}
	}
}

func TestParseWellRoundTripProperty(t *testing.T) {
	f := func(i uint16) bool {
		idx := int(i) % PlateWells
		addr := WellAt(idx)
		back, err := ParseWell(addr.String())
		return err == nil && back == addr && back.Index() == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseWellVariants(t *testing.T) {
	for _, s := range []string{"a1", " A1 ", "A01", "h12"} {
		if _, err := ParseWell(s); err != nil {
			t.Errorf("ParseWell(%q) failed: %v", s, err)
		}
	}
	for _, s := range []string{"", "A", "I1", "A0", "A13", "11", "AA1", "A1x"} {
		if _, err := ParseWell(s); err == nil {
			t.Errorf("ParseWell(%q) accepted invalid input", s)
		}
	}
}

func TestWellAtPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{-1, PlateWells} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("WellAt(%d) did not panic", i)
				}
			}()
			WellAt(i)
		}()
	}
}

func TestPlateDispenseAndContents(t *testing.T) {
	p := NewPlate("plate-1")
	addr := WellAddress{0, 0}
	if err := p.Dispense(addr, []float64{10, 20, 30, 40}); err != nil {
		t.Fatal(err)
	}
	if err := p.Dispense(addr, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	got := p.Contents(addr)
	want := []float64{11, 22, 33, 44}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("contents = %v, want %v", got, want)
		}
	}
}

func TestPlateOverflow(t *testing.T) {
	p := NewPlate("p")
	addr := WellAddress{1, 1}
	if err := p.Dispense(addr, []float64{WellCapacityUL}); err != nil {
		t.Fatal(err)
	}
	err := p.Dispense(addr, []float64{1})
	if !errors.Is(err, ErrWellOverflow) {
		t.Fatalf("overflow err = %v", err)
	}
}

func TestPlateRejectsBadDispense(t *testing.T) {
	p := NewPlate("p")
	if err := p.Dispense(WellAddress{-1, 0}, []float64{1}); err == nil {
		t.Fatal("negative row accepted")
	}
	if err := p.Dispense(WellAddress{0, 12}, []float64{1}); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if err := p.Dispense(WellAddress{0, 0}, []float64{-1}); err == nil {
		t.Fatal("negative volume accepted")
	}
}

func TestPlateUsageProgression(t *testing.T) {
	p := NewPlate("p")
	if p.Used() != 0 {
		t.Fatal("fresh plate not empty")
	}
	for i := 0; i < PlateWells; i++ {
		if err := p.Dispense(WellAt(i), []float64{50, 50, 50, 50}); err != nil {
			t.Fatal(err)
		}
		if p.Used() != i+1 {
			t.Fatalf("Used = %d after %d dispenses", p.Used(), i+1)
		}
	}
}

func TestWellTotalAndEmpty(t *testing.T) {
	w := Well{}
	if w.Total() != 0 {
		t.Fatal("zero well not empty")
	}
	w = Well{Volumes: []float64{1, 2, 3}}
	if w.Total() != 6 {
		t.Fatalf("Total = %v", w.Total())
	}
}

func TestReservoirDrawFillConservation(t *testing.T) {
	r := NewReservoir("cyan", 10000)
	if added := r.Fill(4000); added != 4000 {
		t.Fatalf("Fill added %v", added)
	}
	if err := r.Draw(1500); err != nil {
		t.Fatal(err)
	}
	if got := r.Volume(); math.Abs(got-2500) > 1e-9 {
		t.Fatalf("Volume = %v, want 2500", got)
	}
	if err := r.Draw(3000); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("over-draw err = %v", err)
	}
	if got := r.Volume(); math.Abs(got-2500) > 1e-9 {
		t.Fatalf("failed draw changed volume to %v", got)
	}
}

func TestReservoirFillCapsAtCapacity(t *testing.T) {
	r := NewReservoir("k", 1000)
	if added := r.Fill(1500); added != 1000 {
		t.Fatalf("Fill over capacity added %v", added)
	}
	if r.Volume() != 1000 {
		t.Fatalf("Volume = %v", r.Volume())
	}
}

func TestReservoirDrain(t *testing.T) {
	r := NewReservoir("m", 1000)
	r.Fill(600)
	if got := r.Drain(); got != 600 {
		t.Fatalf("Drain returned %v", got)
	}
	if r.Volume() != 0 {
		t.Fatalf("Volume after drain = %v", r.Volume())
	}
}

func TestReservoirNegativeOps(t *testing.T) {
	r := NewReservoir("y", 1000)
	if added := r.Fill(-5); added != 0 {
		t.Fatalf("negative fill added %v", added)
	}
	if err := r.Draw(-5); err == nil {
		t.Fatal("negative draw accepted")
	}
}

func TestReservoirConservationProperty(t *testing.T) {
	// Alternating fills and draws never create or destroy liquid.
	f := func(ops []uint8) bool {
		r := NewReservoir("x", 5000)
		balance := 0.0
		for i, op := range ops {
			v := float64(op) * 3
			if i%2 == 0 {
				balance += r.Fill(v)
			} else {
				if err := r.Draw(v); err == nil {
					balance -= v
				}
			}
		}
		return math.Abs(r.Volume()-balance) < 1e-6 && r.Volume() >= 0 && r.Volume() <= 5000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPlateConcurrentDispense(t *testing.T) {
	p := NewPlate("c")
	done := make(chan error, PlateWells)
	for i := 0; i < PlateWells; i++ {
		go func(i int) {
			done <- p.Dispense(WellAt(i), []float64{10, 10, 10, 10})
		}(i)
	}
	for i := 0; i < PlateWells; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p.Used() != PlateWells {
		t.Fatalf("Used = %d", p.Used())
	}
}
