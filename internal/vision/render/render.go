// Package render produces the synthetic microplate photographs consumed by
// the vision pipeline. It stands in for the physical camera scene of the
// paper's workcell: a 96-well plate on a mount at a known offset from an
// ArUco fiducial, under a ring light, imaged by a webcam that shifts
// slightly between runs.
//
// The renderer is the other half of the substitution that makes the vision
// code real: ArUco detection, circle Hough, and grid alignment all operate
// on these pixels with no shortcuts or side channels.
package render

import (
	"image"
	"sync"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/sim"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/hough"
	"colormatch/internal/vision/plategrid"
	"colormatch/internal/vision/raster"
)

// Geometry fixes the camera-frame layout: image size, nominal marker
// placement, and the plate's position at its known offset from the marker.
// Distances are in pixels at the camera's working distance.
type Geometry struct {
	ImgW, ImgH int

	MarkerX, MarkerY float64 // nominal marker top-left
	MarkerCellPx     float64 // nominal marker cell size

	PlateX, PlateY float64 // nominal plate top-left
	PlateW, PlateH float64 // plate outline size

	A1X, A1Y float64 // A1 well center, relative to plate top-left
	PitchPx  float64 // well-to-well spacing
	WellRPx  float64 // well radius
}

// Default returns the geometry used throughout the repository: a 640×480
// frame at ~3.5 px/mm over an SBS 96-well plate (127.8mm × 85.5mm, 9mm
// pitch), with the fiducial above-left of the plate.
func Default() Geometry {
	const pxPerMM = 3.5
	return Geometry{
		ImgW: 640, ImgH: 480,
		MarkerX: 40, MarkerY: 60,
		MarkerCellPx: 8,
		PlateX:       130, PlateY: 120,
		PlateW: 127.8 * pxPerMM, PlateH: 85.5 * pxPerMM,
		A1X: 14.38 * pxPerMM, A1Y: 11.24 * pxPerMM,
		PitchPx: 9 * pxPerMM,
		WellRPx: 3.4 * pxPerMM,
	}
}

// MarkerCenter returns the nominal marker center.
func (g Geometry) MarkerCenter() (x, y float64) {
	half := float64(aruco.Cells) * g.MarkerCellPx / 2
	return g.MarkerX + half, g.MarkerY + half
}

// WellCenter returns the nominal (unjittered) center of the well at
// (row, col).
func (g Geometry) WellCenter(row, col int) (x, y float64) {
	return g.PlateX + g.A1X + float64(col)*g.PitchPx,
		g.PlateY + g.A1Y + float64(row)*g.PitchPx
}

// PlateRegionFromMarker derives the approximate plate pixel bounds from a
// marker detection, translating the nominal bounds by the marker's observed
// displacement and scaling pitch-relevant distances by the observed cell
// size — the paper's "use the size and position of the marker to determine
// the approximate pixel-coordinate boundaries of the microplate".
func (g Geometry) PlateRegionFromMarker(det aruco.Detection) hough.Rect {
	nomX, nomY := g.MarkerCenter()
	scale := det.CellPx / g.MarkerCellPx
	dx, dy := det.CX-nomX, det.CY-nomY
	x0 := g.PlateX + dx
	y0 := g.PlateY + dy
	const margin = 6
	return hough.Rect{
		X0: int(x0) - margin,
		Y0: int(y0) - margin,
		X1: int(x0+g.PlateW*scale) + margin,
		Y1: int(y0+g.PlateH*scale) + margin,
	}
}

// SeedFromMarker derives the initial grid estimate from a marker detection.
func (g Geometry) SeedFromMarker(det aruco.Detection) plategrid.Seed {
	nomX, nomY := g.MarkerCenter()
	scale := det.CellPx / g.MarkerCellPx
	dx, dy := det.CX-nomX, det.CY-nomY
	ax, ay := g.WellCenter(0, 0)
	return plategrid.Seed{
		OX:       ax + dx,
		OY:       ay + dy,
		ColPitch: g.PitchPx * scale,
		RowPitch: g.PitchPx * scale,
	}
}

// Scene describes one photograph to render.
type Scene struct {
	Geom     Geometry
	MarkerID int

	// WellColor is the ideal liquid color per well (row-major); only wells
	// with Filled set are drawn as liquid.
	WellColor [labware.PlateWells]color.RGB8
	Filled    [labware.PlateWells]bool

	// JitterX/Y translate the whole scene, simulating camera shift between
	// runs ("to account for potential shifting in the camera position").
	JitterX, JitterY float64

	// IllumFalloff darkens pixels toward the frame corners (ring-light
	// vignetting); 0.05 means 5% darker at the corners.
	IllumFalloff float64

	// NoiseStd is the per-channel Gaussian pixel noise in 8-bit units.
	NoiseStd float64
}

// NewScene returns a scene with the default geometry and mild imaging
// imperfections.
func NewScene() *Scene {
	return &Scene{Geom: Default(), IllumFalloff: 0.06, NoiseStd: 2.5}
}

// SetPlate fills the scene wells from a plate's contents using the supplied
// well-color function (typically the mix model composed with the sensor).
func (s *Scene) SetPlate(p *labware.Plate, wellColor func(volumes []float64) (color.RGB8, bool)) {
	for i := 0; i < labware.PlateWells; i++ {
		vols := p.Contents(labware.WellAt(i))
		if c, ok := wellColor(vols); ok {
			s.WellColor[i] = c
			s.Filled[i] = true
		} else {
			s.Filled[i] = false
		}
	}
}

// Render rasterizes the scene. rng supplies pixel noise; nil renders
// noise-free. The noise is drawn from rng on a goroutine of its own while the
// scene is rasterized and lit, in the order a row-major loop of one
// NormFloat64 per subpixel would draw it. Nothing else may draw from rng
// until Render returns; by then that goroutine has drawn its last deviate
// and closed its channel.
func (s *Scene) Render(dict *aruco.Dictionary, rng *sim.RNG) *image.RGBA {
	g := s.Geom
	var noise <-chan *[]float64
	if rng != nil && s.NoiseStd > 0 {
		noise = drawNoise(rng, g.ImgW, g.ImgH)
		// Drains what a panic would leave unread, and returns only once
		// the producer has closed the channel.
		defer func() {
			for chunk := range noise {
				noisePool.Put(chunk)
			}
		}()
	}
	bench := color.RGB8{R: 228, G: 227, B: 224}
	plateBody := color.RGB8{R: 249, G: 249, B: 247}
	emptyWell := color.RGB8{R: 240, G: 241, B: 240}

	img := raster.NewRGBA(g.ImgW, g.ImgH, bench)

	jx, jy := s.JitterX, s.JitterY
	// Plate body with a subtle darker rim so it reads as an object.
	px0, py0 := g.PlateX+jx, g.PlateY+jy
	raster.FillRect(img, int(px0)-2, int(py0)-2, int(px0+g.PlateW)+2, int(py0+g.PlateH)+2,
		color.RGB8{R: 210, G: 209, B: 206})
	raster.FillRect(img, int(px0), int(py0), int(px0+g.PlateW), int(py0+g.PlateH), plateBody)

	// Wells.
	for i := 0; i < labware.PlateWells; i++ {
		addr := labware.WellAt(i)
		cx, cy := g.WellCenter(addr.Row, addr.Col)
		cx += jx
		cy += jy
		if s.Filled[i] {
			raster.FillCircle(img, cx, cy, g.WellRPx, s.WellColor[i])
		} else {
			// An empty well is a faint ring: visible to a careful eye,
			// usually below the Hough edge threshold.
			raster.FillCircle(img, cx, cy, g.WellRPx, emptyWell)
			raster.FillCircle(img, cx, cy, g.WellRPx-1.5, plateBody)
		}
	}

	// Fiducial marker.
	dict.Render(img, s.MarkerID, int(g.MarkerX+jx), int(g.MarkerY+jy), int(g.MarkerCellPx))

	s.applyIlluminationAndNoise(img, noise)
	return img
}

// noiseChunkRows is the number of image rows of deviates one noise chunk
// carries: 30 channel hand-offs for a 480-row frame.
const noiseChunkRows = 16

// noisePool recycles noise chunks across frames.
var noisePool sync.Pool

// drawNoise starts the goroutine that draws a w×h frame's noise from rng: one
// deviate per subpixel, row-major, in chunks of noiseChunkRows rows taken
// from noisePool. It closes the returned channel after the last chunk. The
// receiver must take every chunk and put it back in noisePool once used.
func drawNoise(rng *sim.RNG, w, h int) <-chan *[]float64 {
	// Three chunks of lead cover the rasterization that precedes the first
	// receive; after that drawing is the slower side, so a deeper buffer
	// would only hold more memory.
	out := make(chan *[]float64, 3)
	go func() {
		defer close(out)
		for y := 0; y < h; y += noiseChunkRows {
			n := min(noiseChunkRows, h-y) * w * 3
			chunk, _ := noisePool.Get().(*[]float64)
			if chunk == nil || cap(*chunk) < n {
				buf := make([]float64, noiseChunkRows*w*3)
				chunk = &buf
			}
			*chunk = (*chunk)[:n]
			rng.NormFloat64Fill(*chunk)
			out <- chunk
		}
	}()
	return out
}

// applyIlluminationAndNoise multiplies in the vignette and adds pixel noise
// (nil noise means none), row by row. Each row's vignette factors go into a
// row buffer first, with one 1 − falloff·(dx²+dy²)/rmax² per pixel, and
// shadeRow then shades the row against its row of the current noise chunk.
// Output is bit-identical to a scalar loop that draws one NormFloat64 per
// subpixel in row-major order.
func (s *Scene) applyIlluminationAndNoise(img *image.RGBA, noise <-chan *[]float64) {
	if s.IllumFalloff == 0 && noise == nil {
		return
	}
	w, h := s.Geom.ImgW, s.Geom.ImgH
	falloff, std := s.IllumFalloff, s.NoiseStd
	cx, cy := float64(w)/2, float64(h)/2
	rmax2 := cx*cx + cy*cy
	fac := make([]float64, w)
	if !(falloff > 0) {
		for x := range fac {
			fac[x] = 1
		}
	}
	var chunk *[]float64
	var noiseRow []float64
	if noise == nil {
		// A zero row at σ = 0 adds exactly 0, which leaves (p·f + 0) + 0.5
		// equal to p·f + 0.5.
		std, noiseRow = 0, make([]float64, 3*w)
	}
	for y := 0; y < h; y++ {
		if noise != nil {
			k := y % noiseChunkRows
			if k == 0 {
				if chunk != nil {
					noisePool.Put(chunk)
				}
				chunk = <-noise
			}
			noiseRow = (*chunk)[k*w*3 : (k+1)*w*3]
		}
		if falloff > 0 {
			dy := float64(y) - cy
			for x := range fac {
				dx := float64(x) - cx
				fac[x] = 1 - falloff*(dx*dx+dy*dy)/rmax2
			}
		}
		i := img.PixOffset(0, y)
		shadeRow(img.Pix[i:i+4*w], fac, noiseRow, std)
	}
	if chunk != nil {
		noisePool.Put(chunk)
	}
}

// shadeRow sets each pixel's color channels of one row to (p·f + σ·n) + 0.5,
// clamped to [0, 255]: f is the pixel's vignette factor from fac and n its
// three deviates from noise, in channel order. The loop advances the three
// slices together and tests their lengths once per pixel, so its unrolled
// channel updates carry no bounds checks.
func shadeRow(pix []uint8, fac, noise []float64, std float64) {
	for len(fac) > 0 && len(pix) >= 4 && len(noise) >= 3 {
		f := fac[0]
		pix[0] = clamp8(float64(pix[0])*f + std*noise[0])
		pix[1] = clamp8(float64(pix[1])*f + std*noise[1])
		pix[2] = clamp8(float64(pix[2])*f + std*noise[2])
		fac, pix, noise = fac[1:], pix[4:], noise[3:]
	}
}

// clamp8 rounds a shaded channel value to uint8 by adding 0.5 and clamping,
// with an inline comparison chain rather than math.Max/math.Min calls.
func clamp8(v float64) uint8 {
	v += 0.5
	if v > 255 {
		v = 255
	} else if !(v > 0) { // also catches NaN, as math.Max did
		v = 0
	}
	return uint8(v)
}
