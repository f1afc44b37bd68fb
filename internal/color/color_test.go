package color

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSRGBLinearKnownValues(t *testing.T) {
	cases := []struct {
		in   uint8
		want float64
	}{
		{0, 0},
		{255, 1},
		{128, 0.21586},
		{120, 0.18782}, // the paper's target gray channel
		{64, 0.05126},
	}
	for _, c := range cases {
		got := srgbDecode(c.in)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("srgbDecode(%d) = %v, want ~%v", c.in, got, c.want)
		}
	}
}

func TestSRGBRoundTripAllValues(t *testing.T) {
	for v := 0; v < 256; v++ {
		in := uint8(v)
		if got := srgbEncode(srgbDecode(in)); got != in {
			t.Fatalf("round trip %d -> %d", in, got)
		}
	}
}

func TestRGB8LinearRoundTripProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		c := RGB8{r, g, b}
		return c.Linear().SRGB8() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXYZRoundTripProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		l := RGB8{r, g, b}.Linear()
		back := l.XYZ().Linear()
		return math.Abs(back.R-l.R) < 1e-6 &&
			math.Abs(back.G-l.G) < 1e-6 &&
			math.Abs(back.B-l.B) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabRoundTripProperty(t *testing.T) {
	f := func(r, g, b uint8) bool {
		c := RGB8{r, g, b}
		return c.Lab().SRGB8() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWhitePointLab(t *testing.T) {
	lab := RGB8{255, 255, 255}.Lab()
	if math.Abs(lab.L-100) > 0.01 || math.Abs(lab.A) > 0.01 || math.Abs(lab.B) > 0.01 {
		t.Fatalf("white Lab = %+v, want (100,0,0)", lab)
	}
}

func TestBlackPointLab(t *testing.T) {
	lab := RGB8{0, 0, 0}.Lab()
	if math.Abs(lab.L) > 0.01 || math.Abs(lab.A) > 0.01 || math.Abs(lab.B) > 0.01 {
		t.Fatalf("black Lab = %+v, want (0,0,0)", lab)
	}
}

func TestGrayAxisIsNeutral(t *testing.T) {
	// Every gray must map to a,b ~ 0 in Lab.
	for v := 0; v < 256; v += 5 {
		lab := RGB8{uint8(v), uint8(v), uint8(v)}.Lab()
		if math.Abs(lab.A) > 0.02 || math.Abs(lab.B) > 0.02 {
			t.Fatalf("gray %d has chroma: %+v", v, lab)
		}
	}
}

func TestKnownLabValues(t *testing.T) {
	// sRGB primaries (D65), reference values from standard tables.
	cases := []struct {
		in   RGB8
		want Lab
	}{
		{RGB8{255, 0, 0}, Lab{53.24, 80.09, 67.20}},
		{RGB8{0, 255, 0}, Lab{87.73, -86.18, 83.18}},
		{RGB8{0, 0, 255}, Lab{32.30, 79.19, -107.86}},
	}
	for _, c := range cases {
		got := c.in.Lab()
		if math.Abs(got.L-c.want.L) > 0.1 || math.Abs(got.A-c.want.A) > 0.1 || math.Abs(got.B-c.want.B) > 0.1 {
			t.Errorf("%+v.Lab() = %+v, want ~%+v", c.in, got, c.want)
		}
	}
}

func TestLinearClamp(t *testing.T) {
	l := Linear{-0.5, 0.5, 1.5}.Clamp()
	if l != (Linear{0, 0.5, 1}) {
		t.Fatalf("Clamp = %+v", l)
	}
}

func TestOutOfGamutEncodesClamped(t *testing.T) {
	c := Linear{2.0, -1.0, 0.5}.SRGB8()
	if c.R != 255 || c.G != 0 {
		t.Fatalf("out-of-gamut encode = %+v", c)
	}
}

func TestLuminanceMonotoneInGray(t *testing.T) {
	prev := -1.0
	for v := 0; v < 256; v++ {
		y := RGB8{uint8(v), uint8(v), uint8(v)}.Linear().XYZ().Y
		if y <= prev {
			t.Fatalf("luminance not strictly increasing at %d: %v <= %v", v, y, prev)
		}
		prev = y
	}
}
