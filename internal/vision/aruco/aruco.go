// Package aruco implements the fiducial-marker machinery the paper's image
// processing uses to locate the microplate: "we station the plate at a known
// distance from an ArUco marker ... we detect the ArUco marker in the image,
// and use the size and position of the marker to determine the approximate
// pixel-coordinate boundaries of the microplate."
//
// Markers are 4×4-bit payloads inside a one-cell black border (6×6 cells
// total). The dictionary generator enforces a minimum Hamming distance
// between codes across all four rotations, as the original ArUco generator
// does, so detections are robust to bit errors and rotation.
package aruco

import (
	"fmt"
	"image"
	"math"

	"colormatch/internal/color"
	"colormatch/internal/vision/raster"
)

const (
	// PayloadBits is the marker payload edge length in bits.
	PayloadBits = 4
	// Cells is the marker edge length in cells including the black border.
	Cells = PayloadBits + 2
	// MinHamming is the minimum pairwise Hamming distance (over all
	// rotations) enforced by GenerateDictionary.
	MinHamming = 4
)

// Dictionary is an ordered set of marker codes. Index = marker id.
type Dictionary struct {
	Codes []uint16
}

// rotate90 rotates a 4×4 bit grid clockwise.
func rotate90(code uint16) uint16 {
	var out uint16
	for r := 0; r < PayloadBits; r++ {
		for c := 0; c < PayloadBits; c++ {
			if code&(1<<(r*PayloadBits+c)) != 0 {
				// (r,c) -> (c, PayloadBits-1-r)
				out |= 1 << (c*PayloadBits + (PayloadBits - 1 - r))
			}
		}
	}
	return out
}

// rotations returns the four rotations of a code.
func rotations(code uint16) [4]uint16 {
	var out [4]uint16
	out[0] = code
	for i := 1; i < 4; i++ {
		out[i] = rotate90(out[i-1])
	}
	return out
}

func popcount16(v uint16) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

// hammingAnyRotation returns the minimum Hamming distance between a and any
// rotation of b.
func hammingAnyRotation(a, b uint16) int {
	best := 16
	for _, rb := range rotations(b) {
		if d := popcount16(a ^ rb); d < best {
			best = d
		}
	}
	return best
}

// selfDistinct reports whether the code is distinguishable from its own
// rotations (needed to recover orientation).
func selfDistinct(code uint16) bool {
	r := rotations(code)
	return r[0] != r[1] && r[0] != r[2] && r[0] != r[3]
}

// GenerateDictionary deterministically builds a dictionary of n codes with
// pairwise (rotation-invariant) Hamming distance >= MinHamming. It panics if
// n codes cannot be found, which does not happen for n <= 32.
func GenerateDictionary(n int) *Dictionary {
	d := &Dictionary{}
	// Deterministic full-period scan of the 16-bit space using a
	// multiplicative step coprime with 2^16, skipping degenerate codes.
	const step = 40503 // odd ⇒ coprime with 65536
	code := uint16(13709)
	for tries := 0; tries < 1<<16 && len(d.Codes) < n; tries++ {
		code += step
		pc := popcount16(code)
		if pc < 4 || pc > 12 || !selfDistinct(code) {
			continue
		}
		ok := true
		for _, existing := range d.Codes {
			if hammingAnyRotation(existing, code) < MinHamming {
				ok = false
				break
			}
		}
		// Also require the code's own rotations to be far apart, so a
		// rotated read cannot alias another orientation after bit errors.
		for i, r := range rotations(code) {
			if i > 0 && popcount16(code^r) < MinHamming {
				ok = false
				break
			}
		}
		if ok {
			d.Codes = append(d.Codes, code)
		}
	}
	if len(d.Codes) < n {
		panic(fmt.Sprintf("aruco: could not generate %d codes", n))
	}
	return d
}

// Default is the dictionary used throughout this repository.
func Default() *Dictionary { return GenerateDictionary(16) }

// Match looks up a read payload against the dictionary, trying all four
// rotations. It returns the marker id and the rotation (number of clockwise
// 90° turns applied to the canonical code to produce the observed read).
func (d *Dictionary) Match(read uint16) (id, rotation int, ok bool) {
	for i, code := range d.Codes {
		rs := rotations(code)
		for rot, r := range rs {
			if r == read {
				return i, rot, true
			}
		}
	}
	return 0, 0, false
}

// Render draws marker id with its top-left corner at (x, y), each cell being
// cellPx pixels. Bit value 1 renders white, 0 renders black; the border is
// always black. A one-cell white quiet zone is drawn around the marker.
func (d *Dictionary) Render(img *image.RGBA, id int, x, y, cellPx int) {
	code := d.Codes[id]
	white := color.RGB8{R: 255, G: 255, B: 255}
	black := color.RGB8{R: 5, G: 5, B: 5}
	// Quiet zone.
	raster.FillRect(img, x-cellPx, y-cellPx, x+(Cells+1)*cellPx, y+(Cells+1)*cellPx, white)
	// Border + payload.
	for r := 0; r < Cells; r++ {
		for c := 0; c < Cells; c++ {
			cellColor := black
			if r > 0 && r < Cells-1 && c > 0 && c < Cells-1 {
				bit := (r-1)*PayloadBits + (c - 1)
				if code&(1<<bit) != 0 {
					cellColor = white
				}
			}
			raster.FillRect(img, x+c*cellPx, y+r*cellPx, x+(c+1)*cellPx, y+(r+1)*cellPx, cellColor)
		}
	}
}

// Detection is one recognized marker.
type Detection struct {
	ID       int
	Rotation int     // clockwise quarter turns relative to canonical
	CX, CY   float64 // marker center in pixels
	CellPx   float64 // measured cell size in pixels
	Bounds   raster.Component
}

// Scratch holds the mask and labeling buffers DetectScratch needs, so a
// campaign of same-sized photos reuses them instead of allocating per frame.
// The slice returned by DetectScratch is backed by it and valid until the
// next call.
type Scratch struct {
	mask  []bool
	comps raster.ComponentScratch
	out   []Detection
}

// DetectScratch finds dictionary markers in a grayscale image, using the
// caller-owned scratch buffers. It thresholds with Otsu, labels dark
// components, and for each square-ish component samples a 6×6 cell grid: the
// border must be entirely dark and the payload must match a dictionary code
// under some rotation.
func (d *Dictionary) DetectScratch(g *raster.Gray, s *Scratch) []Detection {
	th := raster.Otsu(g)
	s.mask = raster.ThresholdInto(s.mask, g, th)
	mask := s.mask
	comps := raster.ComponentsScratch(mask, g.W, 64, &s.comps)
	out := s.out[:0]
	for _, comp := range comps {
		w, h := comp.W(), comp.H()
		if w < 12 || h < 12 {
			continue
		}
		ratio := float64(w) / float64(h)
		if ratio < 0.8 || ratio > 1.25 {
			continue
		}
		// The border alone covers ~5/9 of the bounding box; payload adds more.
		fill := float64(comp.Count) / float64(w*h)
		if fill < 0.4 {
			continue
		}
		read, borderOK := sampleCells(g, comp, th)
		if !borderOK {
			continue
		}
		if id, rot, ok := d.Match(read); ok {
			out = append(out, Detection{
				ID:       id,
				Rotation: rot,
				CX:       float64(comp.MinX) + float64(w)/2,
				CY:       float64(comp.MinY) + float64(h)/2,
				CellPx:   (float64(w) + float64(h)) / 2 / Cells,
				Bounds:   comp,
			})
		}
	}
	s.out = out
	return out
}

// sampleCells reads the 6×6 cell grid of a candidate marker component.
// It returns the 16-bit payload (bit=1 for bright cells) and whether the
// border cells are all dark.
func sampleCells(g *raster.Gray, comp raster.Component, th float64) (read uint16, borderOK bool) {
	cw := float64(comp.W()) / Cells
	ch := float64(comp.H()) / Cells
	borderOK = true
	for r := 0; r < Cells; r++ {
		for c := 0; c < Cells; c++ {
			// Average the middle half of the cell to tolerate edge blur.
			x0 := float64(comp.MinX) + (float64(c)+0.3)*cw
			x1 := float64(comp.MinX) + (float64(c)+0.7)*cw
			y0 := float64(comp.MinY) + (float64(r)+0.3)*ch
			y1 := float64(comp.MinY) + (float64(r)+0.7)*ch
			var sum, n float64
			for y := int(y0); float64(y) <= y1; y++ {
				for x := int(x0); float64(x) <= x1; x++ {
					sum += g.At(x, y)
					n++
				}
			}
			if n == 0 {
				return 0, false
			}
			bright := sum/n > th
			border := r == 0 || c == 0 || r == Cells-1 || c == Cells-1
			if border {
				if bright {
					borderOK = false
				}
				continue
			}
			if bright {
				bit := (r-1)*PayloadBits + (c - 1)
				read |= 1 << bit
			}
		}
	}
	return read, borderOK
}

// Best returns the detection closest to the expected position, or the
// highest-population one if exp is nil. ok is false when dets is empty.
func Best(dets []Detection, expX, expY float64) (Detection, bool) {
	if len(dets) == 0 {
		return Detection{}, false
	}
	best := dets[0]
	bestD := math.Hypot(best.CX-expX, best.CY-expY)
	for _, det := range dets[1:] {
		if d := math.Hypot(det.CX-expX, det.CY-expY); d < bestD {
			best, bestD = det, d
		}
	}
	return best, true
}
