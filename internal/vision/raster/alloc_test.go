package raster

import (
	"testing"

	"colormatch/internal/color"
)

// The vision hot loop leans on these calls staying allocation-free in steady
// state: one Analyzer processes hundreds of photos per campaign, and a
// regression here multiplies straight into fleet wall-clock time.

func TestFromRGBAIntoIsAllocFree(t *testing.T) {
	img := NewRGBA(320, 240, color.RGB8{R: 200, G: 180, B: 160})
	var g Gray
	FromRGBAInto(&g, img) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { FromRGBAInto(&g, img) }); n != 0 {
		t.Fatalf("FromRGBAInto into warm scratch allocates %.1f times per call, want 0", n)
	}
}

func TestMeanDiskIsAllocFree(t *testing.T) {
	img := NewRGBA(320, 240, color.RGB8{R: 90, G: 120, B: 150})
	if n := testing.AllocsPerRun(50, func() { MeanDisk(img, 160, 120, 11) }); n != 0 {
		t.Fatalf("MeanDisk allocates %.1f times per call, want 0", n)
	}
}

func TestComponentsScratchIsAllocFree(t *testing.T) {
	img := NewRGBA(160, 120, color.RGB8{R: 240, G: 240, B: 240})
	FillRect(img, 20, 20, 60, 60, color.RGB8{R: 10, G: 10, B: 10})
	FillRect(img, 80, 30, 130, 90, color.RGB8{R: 10, G: 10, B: 10})
	var g Gray
	FromRGBAInto(&g, img)
	mask := ThresholdInto(nil, &g, 128)
	var s ComponentScratch
	ComponentsScratch(mask, g.W, 8, &s) // warm the scratch
	if n := testing.AllocsPerRun(50, func() { ComponentsScratch(mask, g.W, 8, &s) }); n != 0 {
		t.Fatalf("ComponentsScratch with warm scratch allocates %.1f times per call, want 0", n)
	}
}
