// Package vision assembles the paper's §2.4 image-processing pipeline:
// detect the ArUco marker, derive the approximate plate boundaries from the
// marker's size and position, find well-sized circles with a Hough
// transform, align a grid to the circles found, predict every well center
// from the grid (recovering the Hough false negatives), and report the
// detected color at each well center.
//
// The pipeline stages live in the subpackages — aruco (fiducial
// detection), hough (circle transform), plategrid (grid alignment), raster
// (pixel primitives), and render (the synthetic plate renderer the
// simulated camera photographs) — and [Analyzer.Analyze] chains them over
// one frame. [EncodePNG] and [DecodePNG] carry the frame from the camera
// to the application, where a physical camera would deliver a picture: an
// uncompressed (stored-block) PNG, which publishing campaigns also store
// as each portal record's plate.png quality-control image. The per-well
// colors [Analyzer.Analyze] reads from it are what the application scores
// and publishes.
package vision
