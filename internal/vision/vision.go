package vision

import (
	"errors"
	"fmt"
	"image"

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
