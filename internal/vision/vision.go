package vision

import (
	"bytes"
	"errors"
	"fmt"
	"image"
	"image/png"
	"sync"

	"colormatch/internal/color"
	"colormatch/internal/labware"
	"colormatch/internal/vision/aruco"
	"colormatch/internal/vision/hough"
	"colormatch/internal/vision/plategrid"
	"colormatch/internal/vision/raster"
	"colormatch/internal/vision/render"
)

// Result is the outcome of analyzing one plate photograph.
type Result struct {
	Marker       aruco.Detection
	CirclesFound int            // wells the Hough transform located directly
	GridAssigned int            // circles consistent with the fitted grid
	Grid         plategrid.Grid // fitted well grid
	WellColors   [labware.PlateWells]color.RGB8
	WellCenters  [labware.PlateWells][2]float64
}

// ErrNoMarker reports that no fiducial was found, so the plate cannot be
// located.
var ErrNoMarker = errors.New("vision: no fiducial marker detected")

// Analyzer holds the pipeline configuration plus per-photo scratch buffers.
// The scratch makes an Analyzer cheap to call in a loop — one grayscale
// plane, one marker mask, and the Hough transform's edge list and one vote
// plane per radius-plane worker are allocated on the first photo and reused
// for the rest of the campaign. Within one Analyze call the Hough transform
// spreads its radius planes over the host's cores, each worker on its own
// vote plane; the scratch as a whole serves one call at a time, so a single
// Analyzer must still not be used from multiple goroutines concurrently.
type Analyzer struct {
	Dict  *aruco.Dictionary
	Geom  render.Geometry
	Hough hough.Params

	gray  raster.Gray
	aruco aruco.Scratch
	hscr  hough.Scratch
}

// NewAnalyzer returns an analyzer with default dictionary, geometry and
// Hough parameters matched to the default geometry's well size.
func NewAnalyzer() *Analyzer {
	g := render.Default()
	p := hough.DefaultParams()
	p.RMin = int(g.WellRPx) - 3
	p.RMax = int(g.WellRPx) + 3
	p.MinDist = g.PitchPx * 0.6
	return &Analyzer{Dict: aruco.Default(), Geom: g, Hough: p}
}

// Analyze runs the full pipeline on one photograph. It reuses the analyzer's
// scratch buffers, so it must not be called concurrently on one Analyzer.
func (a *Analyzer) Analyze(img *image.RGBA) (*Result, error) {
	gray := &a.gray
	raster.FromRGBAInto(gray, img)

	dets := a.Dict.DetectScratch(gray, &a.aruco)
	nomX, nomY := a.Geom.MarkerCenter()
	marker, ok := aruco.Best(dets, nomX, nomY)
	if !ok {
		return nil, ErrNoMarker
	}

	region := a.Geom.PlateRegionFromMarker(marker)
	circles := hough.CirclesScratch(gray, region, a.Hough, &a.hscr)

	seed := a.Geom.SeedFromMarker(marker)
	grid, assigned, err := plategrid.Fit(circles, seed, labware.PlateRows, labware.PlateCols)
	if err != nil && !errors.Is(err, plategrid.ErrTooFewCircles) {
		return nil, fmt.Errorf("vision: %w", err)
	}

	res := &Result{
		Marker:       marker,
		CirclesFound: len(circles),
		GridAssigned: assigned,
		Grid:         grid,
	}
	sampleR := a.Geom.WellRPx * 0.55
	for i := 0; i < labware.PlateWells; i++ {
		addr := labware.WellAt(i)
		x, y := grid.Center(addr.Row, addr.Col)
		res.WellCenters[i] = [2]float64{x, y}
		res.WellColors[i] = raster.MeanDisk(img, x, y, sampleR)
	}
	return res, nil
}

// pngEncoder trades compression ratio for speed. Camera frames make one hop
// from the camera module to the analyzer, and publishing campaigns also store
// each iteration's frame as a portal blob (core.App.publish's plate.png), so
// the trade costs ~920KB instead of ~500KB of portal bytes per iteration in
// exchange for not spending ~45ms of deflate per frame in a simulation whose
// frames dominate the wall-clock profile. Stored (uncompressed) deflate
// blocks keep the format lossless PNG and cut encode cost ~24×. The shared
// BufferPool amortizes the encoder's internal scratch across frames.
var pngEncoder = png.Encoder{
	CompressionLevel: png.NoCompression,
	BufferPool:       &pngPool{},
}

type pngPool struct{ pool sync.Pool }

func (p *pngPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

// EncodePNG serializes an image for transport from the camera module to the
// application, as the physical camera would deliver a compressed frame. The
// output buffer is sized up front by storedPNGSize, so an opaque frame is
// written into one allocation that it fills.
func EncodePNG(img *image.RGBA) ([]byte, error) {
	b := img.Bounds()
	buf := bytes.NewBuffer(make([]byte, 0, storedPNGSize(b.Dx(), b.Dy())))
	if err := pngEncoder.Encode(buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// storedPNGSize bounds the length of pngEncoder's output for an opaque w×h
// image, which it writes as 8-bit truecolor in stored deflate blocks: each
// row is a filter byte and 3 bytes per pixel; zlib adds a 2-byte header and a
// 4-byte Adler-32, deflate a 5-byte header per block of at most 65535 bytes
// plus an empty final block; the stream is cut into IDAT chunks of at most
// 32 KiB with 12 bytes of length, type and CRC each; and the 8-byte
// signature, the 25-byte IHDR chunk and the 12-byte IEND chunk frame it. An
// image with translucent pixels takes 4 bytes per pixel and outgrows it.
func storedPNGSize(w, h int) int {
	raw := h * (1 + 3*w)
	z := 2 + raw + 5*(raw/65535+2) + 4
	return 8 + 25 + z + 12*(z/(1<<15)+1) + 12
}

// DecodePNG parses a PNG frame back into an RGBA image whose bounds start at
// the origin.
func DecodePNG(data []byte) (*image.RGBA, error) {
	src, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	// png.Decode hands back a packed, origin-anchored *image.RGBA for opaque
	// truecolor frames, which is already the result, and *image.NRGBA
	// otherwise. Opaque NRGBA is byte-identical to RGBA, so its rows are
	// copied directly instead of going through the At/Set color conversion
	// machinery (two interface calls and a color model round trip per
	// pixel); the generic path remains for any other source.
	if rgba, ok := src.(*image.RGBA); ok && rgba.Rect.Min == (image.Point{}) && rgba.Stride == 4*rgba.Rect.Dx() {
		return rgba, nil
	}
	b := src.Bounds()
	out := image.NewRGBA(image.Rect(0, 0, b.Dx(), b.Dy()))
	if nrgba, ok := src.(*image.NRGBA); ok && nrgba.Opaque() {
		copyRows(out, nrgba.Pix[nrgba.PixOffset(b.Min.X, b.Min.Y):], nrgba.Stride, b)
	} else {
		slowConvert(out, src, b)
	}
	return out, nil
}

// copyRows copies 8-bit RGBA rows from a decoded image's Pix (already offset
// to the top-left pixel of its bounds) into out.
func copyRows(out *image.RGBA, pix []uint8, stride int, b image.Rectangle) {
	w4 := b.Dx() * 4
	for y := 0; y < b.Dy(); y++ {
		i := y * stride
		copy(out.Pix[y*out.Stride:y*out.Stride+w4], pix[i:i+w4])
	}
}

// slowConvert is the generic per-pixel conversion path for source types
// without a directly copyable layout.
func slowConvert(out *image.RGBA, src image.Image, b image.Rectangle) {
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			out.Set(x, y, src.At(b.Min.X+x, b.Min.Y+y))
		}
	}
}
