// Package raster supplies the low-level image operations the vision pipeline
// is built from: grayscale conversion, global (Otsu) thresholding,
// connected-component labeling, and simple drawing primitives for the
// synthetic renderer. It replaces the slice of OpenCV the paper's image
// processing relies on.
package raster

import (
	"image"

	"colormatch/internal/color"
)

// Gray is a float64 grayscale image in [0,255], row-major.
type Gray struct {
	W, H int
	Pix  []float64
}

// At returns the intensity at (x,y); out-of-bounds reads return 0.
func (g *Gray) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Pix[y*g.W+x]
}

// Set assigns the intensity at (x,y); out-of-bounds writes are dropped.
func (g *Gray) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Pix[y*g.W+x] = v
}

// Resize reshapes g to w×h, reusing the pixel buffer when it has capacity.
// Contents after a resize are unspecified; callers overwrite every pixel.
func (g *Gray) Resize(w, h int) {
	g.W, g.H = w, h
	if cap(g.Pix) < w*h {
		g.Pix = make([]float64, w*h)
	} else {
		g.Pix = g.Pix[:w*h]
	}
}

// FromRGBAInto converts img to grayscale in dst using Rec.601 luma weights,
// reusing dst's pixel buffer when it is large enough, so the vision pipeline
// amortizes per-photo grayscale buffers across a campaign.
func FromRGBAInto(dst *Gray, img *image.RGBA) {
	b := img.Bounds()
	dst.Resize(b.Dx(), b.Dy())
	for y := 0; y < dst.H; y++ {
		i := img.PixOffset(b.Min.X, b.Min.Y+y)
		row := dst.Pix[y*dst.W : (y+1)*dst.W]
		for x := range row {
			r := float64(img.Pix[i])
			gg := float64(img.Pix[i+1])
			bb := float64(img.Pix[i+2])
			row[x] = 0.299*r + 0.587*gg + 0.114*bb
			i += 4
		}
	}
}

// Otsu computes the Otsu threshold of g: the intensity that maximizes
// between-class variance of the bi-level split.
func Otsu(g *Gray) float64 {
	var hist [256]int
	for _, v := range g.Pix {
		i := int(v)
		if i < 0 {
			i = 0
		}
		if i > 255 {
			i = 255
		}
		hist[i]++
	}
	total := len(g.Pix)
	var sumAll float64
	for i, c := range hist {
		sumAll += float64(i) * float64(c)
	}
	var sumB, wB float64
	bestVar, bestT := -1.0, 127.0
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(total) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		v := wB * wF * (mB - mF) * (mB - mF)
		if v > bestVar {
			bestVar = v
			bestT = float64(t)
		}
	}
	return bestT
}

// ThresholdInto writes a binary mask of g into dst, true where intensity <= t
// (dark pixels), and returns the mask; dst grows only when its capacity is
// insufficient. The inclusive comparison pairs with Otsu, which returns the
// upper edge of the dark class.
func ThresholdInto(dst []bool, g *Gray, t float64) []bool {
	if cap(dst) < len(g.Pix) {
		dst = make([]bool, len(g.Pix))
	} else {
		dst = dst[:len(g.Pix)]
	}
	for i, v := range g.Pix {
		dst[i] = v <= t
	}
	return dst
}

// Component is a 4-connected region of set mask pixels.
type Component struct {
	MinX, MinY, MaxX, MaxY int // inclusive bounding box
	Count                  int // pixel population
}

// W returns the bounding-box width.
func (c Component) W() int { return c.MaxX - c.MinX + 1 }

// H returns the bounding-box height.
func (c Component) H() int { return c.MaxY - c.MinY + 1 }

// ComponentScratch holds the labeling buffers ComponentsScratch needs, so
// repeated calls on same-sized masks (one per analyzed photo) stop
// allocating.
type ComponentScratch struct {
	labels []int32
	stack  []int
	out    []Component
}

// ComponentsScratch labels 4-connected regions of true pixels in mask (width
// w), using the caller-owned scratch buffers. Regions smaller than minCount
// pixels are dropped. The returned slice is backed by the scratch and only
// valid until the next call with the same scratch.
func ComponentsScratch(mask []bool, w int, minCount int, s *ComponentScratch) []Component {
	h := len(mask) / w
	if cap(s.labels) < len(mask) {
		s.labels = make([]int32, len(mask))
	} else {
		s.labels = s.labels[:len(mask)]
		for i := range s.labels {
			s.labels[i] = 0
		}
	}
	labels := s.labels
	out := s.out[:0]
	stack := s.stack
	for start := range mask {
		if !mask[start] || labels[start] != 0 {
			continue
		}
		id := int32(len(out) + 1)
		comp := Component{MinX: w, MinY: h, MaxX: -1, MaxY: -1}
		stack = stack[:0]
		stack = append(stack, start)
		labels[start] = id
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			comp.Count++
			if x < comp.MinX {
				comp.MinX = x
			}
			if x > comp.MaxX {
				comp.MaxX = x
			}
			if y < comp.MinY {
				comp.MinY = y
			}
			if y > comp.MaxY {
				comp.MaxY = y
			}
			if x > 0 && mask[i-1] && labels[i-1] == 0 {
				labels[i-1] = id
				stack = append(stack, i-1)
			}
			if x < w-1 && mask[i+1] && labels[i+1] == 0 {
				labels[i+1] = id
				stack = append(stack, i+1)
			}
			if y > 0 && mask[i-w] && labels[i-w] == 0 {
				labels[i-w] = id
				stack = append(stack, i-w)
			}
			if y < h-1 && mask[i+w] && labels[i+w] == 0 {
				labels[i+w] = id
				stack = append(stack, i+w)
			}
		}
		if comp.Count >= minCount {
			out = append(out, comp)
		}
	}
	s.stack = stack
	s.out = out
	return out
}

// NewRGBA returns a w×h RGBA image filled with the given color.
func NewRGBA(w, h int, fill color.RGB8) *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	if w == 0 || h == 0 {
		return img
	}
	// Fill the first row pixel-wise, then replicate it: row copies beat a
	// bounds-checked SetRGBA per pixel by an order of magnitude.
	row := img.Pix[:w*4]
	for x := 0; x < w; x++ {
		row[x*4+0] = fill.R
		row[x*4+1] = fill.G
		row[x*4+2] = fill.B
		row[x*4+3] = 255
	}
	for y := 1; y < h; y++ {
		copy(img.Pix[y*img.Stride:y*img.Stride+w*4], row)
	}
	return img
}

// FillRect fills the axis-aligned rectangle [x0,x1)×[y0,y1).
func FillRect(img *image.RGBA, x0, y0, x1, y1 int, c color.RGB8) {
	b := img.Bounds()
	if x0 < b.Min.X {
		x0 = b.Min.X
	}
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if x1 > b.Max.X {
		x1 = b.Max.X
	}
	if y1 > b.Max.Y {
		y1 = b.Max.Y
	}
	if x0 >= x1 || y0 >= y1 {
		return
	}
	first := img.PixOffset(x0, y0)
	row := img.Pix[first : first+(x1-x0)*4]
	for x := 0; x < x1-x0; x++ {
		row[x*4+0] = c.R
		row[x*4+1] = c.G
		row[x*4+2] = c.B
		row[x*4+3] = 255
	}
	for y := y0 + 1; y < y1; y++ {
		i := img.PixOffset(x0, y)
		copy(img.Pix[i:i+(x1-x0)*4], row)
	}
}

// FillCircle fills a disk of radius r centered at (cx,cy).
func FillCircle(img *image.RGBA, cx, cy, r float64, c color.RGB8) {
	b := img.Bounds()
	x0, x1 := int(cx-r-1), int(cx+r+1)
	y0, y1 := int(cy-r-1), int(cy+r+1)
	if x0 < b.Min.X {
		x0 = b.Min.X
	}
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if x1 > b.Max.X-1 {
		x1 = b.Max.X - 1
	}
	if y1 > b.Max.Y-1 {
		y1 = b.Max.Y - 1
	}
	r2 := r * r
	for y := y0; y <= y1; y++ {
		dy := float64(y) + 0.5 - cy
		dy2 := dy * dy
		i := img.PixOffset(x0, y)
		for x := x0; x <= x1; x++ {
			dx := float64(x) + 0.5 - cx
			if dx*dx+dy2 <= r2 {
				img.Pix[i+0] = c.R
				img.Pix[i+1] = c.G
				img.Pix[i+2] = c.B
				img.Pix[i+3] = 255
			}
			i += 4
		}
	}
}

// MeanDisk returns the average color over a disk of radius r at (cx,cy),
// ignoring out-of-bounds pixels. It is how the pipeline samples a well's
// color at its predicted center.
func MeanDisk(img *image.RGBA, cx, cy, r float64) color.RGB8 {
	var sr, sg, sb, n float64
	b := img.Bounds()
	x0, x1 := int(cx-r-1), int(cx+r+1)
	y0, y1 := int(cy-r-1), int(cy+r+1)
	if x0 < b.Min.X {
		x0 = b.Min.X
	}
	if y0 < b.Min.Y {
		y0 = b.Min.Y
	}
	if x1 > b.Max.X-1 {
		x1 = b.Max.X - 1
	}
	if y1 > b.Max.Y-1 {
		y1 = b.Max.Y - 1
	}
	r2 := r * r
	for y := y0; y <= y1; y++ {
		dy := float64(y) + 0.5 - cy
		dy2 := dy * dy
		i := img.PixOffset(x0, y)
		for x := x0; x <= x1; x++ {
			dx := float64(x) + 0.5 - cx
			if dx*dx+dy2 > r2 {
				i += 4
				continue
			}
			sr += float64(img.Pix[i])
			sg += float64(img.Pix[i+1])
			sb += float64(img.Pix[i+2])
			n++
			i += 4
		}
	}
	if n == 0 {
		return color.RGB8{}
	}
	return color.RGB8{
		R: uint8(sr/n + 0.5),
		G: uint8(sg/n + 0.5),
		B: uint8(sb/n + 0.5),
	}
}
