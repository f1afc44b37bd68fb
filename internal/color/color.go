// Package color implements the color-space machinery the color-matching
// benchmark depends on: 8-bit sRGB, linear RGB, CIE XYZ and CIELAB
// representations with conversions in both directions, plus the distance
// metrics the paper uses to score samples (Euclidean RGB distance for
// Figure 4, ΔE variants for solver grading).
package color

import "math"

// RGB8 is an 8-bit sRGB color, the representation produced by the camera
// module and consumed by the solvers (the paper's target color is
// RGB=(120,120,120)).
type RGB8 struct {
	R, G, B uint8
}

// Linear is a linear-light RGB color with channels nominally in [0,1].
// It is the space in which the dye-mixing physics operates.
type Linear struct {
	R, G, B float64
}

// XYZ is a CIE 1931 XYZ color (D65 reference white).
type XYZ struct {
	X, Y, Z float64
}

// Lab is a CIELAB color (D65 reference white).
type Lab struct {
	L, A, B float64
}

// D65 reference white in XYZ, normalized so Y=1.
var d65 = XYZ{X: 0.95047, Y: 1.00000, Z: 1.08883}

// srgbDecode converts one 8-bit sRGB channel value to linear light.
func srgbDecode(v uint8) float64 {
	c := float64(v) / 255
	if c <= 0.04045 {
		return c / 12.92
	}
	return math.Pow((c+0.055)/1.055, 2.4)
}

// srgbEncode converts one linear-light channel to the 8-bit sRGB range,
// clamping to [0,255].
func srgbEncode(c float64) uint8 {
	if c <= 0 {
		return 0
	}
	var v float64
	if c <= 0.0031308 {
		v = 12.92 * c
	} else {
		v = 1.055*math.Pow(c, 1/2.4) - 0.055
	}
	v = v*255 + 0.5
	if v >= 255 {
		return 255
	}
	return uint8(v)
}

// Linear converts c to linear-light RGB.
func (c RGB8) Linear() Linear {
	return Linear{srgbDecode(c.R), srgbDecode(c.G), srgbDecode(c.B)}
}

// SRGB8 converts l to 8-bit sRGB, clamping out-of-gamut channels.
func (l Linear) SRGB8() RGB8 {
	return RGB8{srgbEncode(l.R), srgbEncode(l.G), srgbEncode(l.B)}
}

// Clamp returns l with each channel clamped to [0,1].
func (l Linear) Clamp() Linear {
	cl := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return Linear{cl(l.R), cl(l.G), cl(l.B)}
}

// XYZ converts linear RGB (sRGB primaries) to CIE XYZ (D65).
func (l Linear) XYZ() XYZ {
	return XYZ{
		X: 0.4124564*l.R + 0.3575761*l.G + 0.1804375*l.B,
		Y: 0.2126729*l.R + 0.7151522*l.G + 0.0721750*l.B,
		Z: 0.0193339*l.R + 0.1191920*l.G + 0.9503041*l.B,
	}
}

// Linear converts CIE XYZ (D65) to linear RGB (sRGB primaries).
func (x XYZ) Linear() Linear {
	return Linear{
		R: 3.2404542*x.X - 1.5371385*x.Y - 0.4985314*x.Z,
		G: -0.9692660*x.X + 1.8760108*x.Y + 0.0415560*x.Z,
		B: 0.0556434*x.X - 0.2040259*x.Y + 1.0572252*x.Z,
	}
}

// labF is the CIELAB forward companding function.
func labF(t float64) float64 {
	const delta = 6.0 / 29.0
	if t > delta*delta*delta {
		return math.Cbrt(t)
	}
	return t/(3*delta*delta) + 4.0/29.0
}

// labFInv inverts labF.
func labFInv(t float64) float64 {
	const delta = 6.0 / 29.0
	if t > delta {
		return t * t * t
	}
	return 3 * delta * delta * (t - 4.0/29.0)
}

// Lab converts XYZ (D65) to CIELAB.
func (x XYZ) Lab() Lab {
	fx := labF(x.X / d65.X)
	fy := labF(x.Y / d65.Y)
	fz := labF(x.Z / d65.Z)
	return Lab{
		L: 116*fy - 16,
		A: 500 * (fx - fy),
		B: 200 * (fy - fz),
	}
}

// XYZ converts CIELAB to XYZ (D65).
func (l Lab) XYZ() XYZ {
	fy := (l.L + 16) / 116
	fx := fy + l.A/500
	fz := fy - l.B/200
	return XYZ{
		X: d65.X * labFInv(fx),
		Y: d65.Y * labFInv(fy),
		Z: d65.Z * labFInv(fz),
	}
}

// Lab converts an 8-bit sRGB color to CIELAB.
func (c RGB8) Lab() Lab { return c.Linear().XYZ().Lab() }

// SRGB8 converts a CIELAB color to 8-bit sRGB, clamping out-of-gamut values.
func (l Lab) SRGB8() RGB8 { return l.XYZ().Linear().Clamp().SRGB8() }
