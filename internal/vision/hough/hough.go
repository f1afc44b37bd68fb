// Package hough implements the circle Hough transform used to locate
// microplate wells, standing in for OpenCV's HoughCircles: "With the
// HoughCircles algorithm from OpenCV, we can detect circular features in the
// image to precisely identify the center of wells. As this method is prone
// to false negatives..." — the same false-negative behavior emerges here on
// low-contrast wells, which is what makes the downstream grid-alignment
// recovery step (package plategrid) necessary and testable.
package hough

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"colormatch/internal/vision/raster"
)

// Circle is one detected circle with its accumulator support.
type Circle struct {
	X, Y  float64
	R     float64
	Votes int
}

// Rect restricts the search region (inclusive-exclusive pixel bounds).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Contains reports whether (x,y) lies in the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Params tunes the transform.
type Params struct {
	RMin, RMax int     // radius search range in pixels, inclusive
	MagThresh  float64 // Sobel magnitude below which a pixel casts no votes
	// MinSupport is the fraction of a circle's perimeter that must vote for
	// a candidate center; circles below it are dropped. This is the knob
	// that makes light wells (weak edges) go undetected, as in the paper.
	MinSupport float64
	// MinDist is the minimum center distance between reported circles
	// (non-maximum suppression radius). Zero defaults to RMin.
	MinDist float64
}

// DefaultParams returns parameters tuned for plate wells of ~10-13px radius.
func DefaultParams() Params {
	return Params{RMin: 9, RMax: 14, MagThresh: 60, MinSupport: 0.5}
}

// Scratch holds the transform's buffers so a long campaign of same-sized
// photos allocates them once: the list of strong edge pixels, one vote plane
// with its row maxima and the two three-row rings per worker, and each radius
// plane's candidates. A worker's vote plane and row maxima are all zero
// between calls, over their whole capacity, so a call of any size starts on
// clean planes without clearing them. The slice returned by CirclesScratch is
// backed by it and only valid until the next call. One Scratch must not be
// used by concurrent calls.
type Scratch struct {
	edges   []edge
	workers []planeScratch
	planes  [][]Circle   // candidates of each radius plane, row-major
	next    atomic.Int32 // index of the next unclaimed radius plane
	wg      sync.WaitGroup
	cands   []Circle
	out     []Circle
}

// edge is a pixel whose Sobel magnitude reaches the threshold, with its unit
// gradient vector.
type edge struct {
	x, y   int32
	cs, sn float64
}

// planeScratch is one worker's buffers for the radius plane it is sweeping.
// Rows of votes and smooth carry a zero cell at each end, and zero stands for
// the rows beyond the plane's top and bottom, so the clamped box sum and the
// peak test need no border cases. rowMax is kept by vote, so peaks can bound
// every row's box sums before it sums a cell; need holds that plan.
type planeScratch struct {
	votes  []int32 // h rows of w+2; zero between planes
	rowMax []int32 // each vote row's largest count; zero between planes
	need   []uint8 // per row, the work peaks does on it (see peaks)
	rowSum []int32 // ring of three rows of w: horizontal 3-sums
	smooth []int32 // ring of three rows of w+2: 3×3 box sums
	zero   []int32 // w+2 zeros
}

// grow returns buf resized to n and zeroed.
func grow(buf []int32, n int) []int32 {
	buf = resize(buf, n)
	clear(buf)
	return buf
}

// resize returns buf resized to n, allocating (zeroed) only when its capacity
// is short; reused elements keep their values.
func resize[T int32 | uint8](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// vote adds one vote to cell i of vote row y and keeps the row's maximum.
func (ps *planeScratch) vote(i, y int) {
	v := ps.votes[i] + 1
	ps.votes[i] = v
	if v > ps.rowMax[y] {
		ps.rowMax[y] = v
	}
}

// CirclesScratch runs a gradient-voting circle Hough transform over the
// region of g, using the caller-owned scratch buffers. Each strong edge pixel
// votes for centers at distance r along ±gradient for every candidate radius.
// Local accumulator maxima with sufficient perimeter support are returned,
// strongest first, after non-maximum suppression.
//
// One gradient pass lists the region's strong edge pixels; each radius plane
// is then voted, box-summed and searched for peaks on its own, with the
// planes spread over runtime.GOMAXPROCS(0) workers, the calling goroutine
// being one of them. Candidates are gathered in radius order, so the result
// does not depend on the number of workers.
func CirclesScratch(g *raster.Gray, region Rect, p Params, s *Scratch) []Circle {
	return circles(g, region, p, s, runtime.GOMAXPROCS(0))
}

// circles is CirclesScratch with the worker count given; it is capped at the
// number of radius planes.
func circles(g *raster.Gray, region Rect, p Params, s *Scratch, workers int) []Circle {
	if p.RMin <= 0 || p.RMax < p.RMin {
		return nil
	}
	if region.X1 > g.W {
		region.X1 = g.W
	}
	if region.Y1 > g.H {
		region.Y1 = g.H
	}
	if region.X0 < 0 {
		region.X0 = 0
	}
	if region.Y0 < 0 {
		region.Y0 = 0
	}
	w := region.X1 - region.X0
	h := region.Y1 - region.Y0
	if w <= 0 || h <= 0 {
		return nil
	}
	nr := p.RMax - p.RMin + 1
	s.edges = appendEdges(s.edges[:0], g, region, p.MagThresh)

	workers = max(1, min(workers, nr))
	if cap(s.workers) < workers {
		s.workers = make([]planeScratch, workers)
	}
	s.workers = s.workers[:workers]
	for i := range s.workers {
		ps := &s.workers[i]
		ps.votes = resize(ps.votes, (w+2)*h)
		ps.rowMax = resize(ps.rowMax, h)
		ps.need = resize(ps.need, h)
		ps.rowSum = grow(ps.rowSum, 3*w)
		ps.smooth = grow(ps.smooth, 3*(w+2))
		ps.zero = grow(ps.zero, w+2)
	}
	if cap(s.planes) < nr {
		s.planes = make([][]Circle, nr)
	}
	s.planes = s.planes[:nr]
	s.next.Store(0)
	s.wg.Add(workers - 1)
	for k := 1; k < workers; k++ {
		// The copy of region lets the closure capture it by value.
		ps, region := &s.workers[k], region
		go func() {
			defer s.wg.Done()
			s.sweep(ps, region, p, w, h)
		}()
	}
	s.sweep(&s.workers[0], region, p, w, h)
	s.wg.Wait()

	cands := s.cands[:0]
	for _, pc := range s.planes {
		cands = append(cands, pc...)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Votes > cands[j].Votes })
	s.cands = cands

	minDist := p.MinDist
	if minDist <= 0 {
		minDist = float64(p.RMin)
	}
	out := s.out[:0]
	for _, c := range cands {
		dup := false
		for _, kept := range out {
			if math.Hypot(c.X-kept.X, c.Y-kept.Y) < minDist {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	s.out = out
	return out
}

// appendEdges appends the region's strong edge pixels in row-major order. A
// pixel's gradient depends only on its own 3×3 Sobel neighborhood, so it is
// computed only inside the region, minus the image border where Sobel is
// defined as zero. The unit vector gx/m, gy/m is the direction the
// atan2-based formulation produced, without the transcendental round trip.
func appendEdges(edges []edge, g *raster.Gray, region Rect, thresh float64) []edge {
	// A squared magnitude below thresh²·(1−1e-9) cannot reach thresh under
	// any rounding of either form, so it skips math.Hypot; every pixel that
	// could pass still goes through Hypot, which alone decides.
	var skip2 float64
	if thresh > 0 {
		skip2 = thresh * thresh * (1 - 1e-9)
	}
	x0, y0 := max(region.X0, 1), max(region.Y0, 1)
	x1, y1 := min(region.X1, g.W-1), min(region.Y1, g.H-1)
	gw := g.W
	for y := y0; y < y1; y++ {
		up := g.Pix[(y-1)*gw : y*gw]
		mid := g.Pix[y*gw : (y+1)*gw]
		dn := g.Pix[(y+1)*gw : (y+2)*gw]
		for x := x0; x < x1; x++ {
			gx := -up[x-1] + up[x+1] +
				-2*mid[x-1] + 2*mid[x+1] +
				-dn[x-1] + dn[x+1]
			gy := -up[x-1] - 2*up[x] - up[x+1] +
				dn[x-1] + 2*dn[x] + dn[x+1]
			if gx*gx+gy*gy < skip2 {
				continue
			}
			m := math.Hypot(gx, gy)
			if m < thresh {
				continue
			}
			edges = append(edges, edge{x: int32(x), y: int32(y), cs: gx / m, sn: gy / m})
		}
	}
	return edges
}

// sweep claims radius planes until none is left, voting each into ps.votes
// and collecting its peaks into s.planes.
func (s *Scratch) sweep(ps *planeScratch, region Rect, p Params, w, h int) {
	stride := w + 2
	for {
		ri := int(s.next.Add(1)) - 1
		if ri >= len(s.planes) {
			return
		}
		r := float64(p.RMin + ri)
		minVotes := int32(p.MinSupport * 2 * math.Pi * r)
		if minVotes < 3 {
			minVotes = 3
		}
		for _, e := range s.edges {
			// Vote on both sides: wells may be darker or lighter than the
			// plate, so the gradient can point either way.
			fx, fy := float64(e.x), float64(e.y)
			cx := int(fx + r*e.cs + 0.5)
			cy := int(fy + r*e.sn + 0.5)
			if region.Contains(cx, cy) {
				y := cy - region.Y0
				ps.vote(y*stride+(cx-region.X0)+1, y)
			}
			cx = int(fx - r*e.cs + 0.5)
			cy = int(fy - r*e.sn + 0.5)
			if region.Contains(cx, cy) {
				y := cy - region.Y0
				ps.vote(y*stride+(cx-region.X0)+1, y)
			}
		}
		s.planes[ri] = ps.peaks(s.planes[ri][:0], region, r, minVotes, w, h)
	}
}

// The work peaks does on a row, in need.
const (
	needSum    = 1 // horizontal 3-sums, for the box sums of a searched neighbor
	needSearch = 2 // horizontal 3-sums, box sums and the peak search
)

// peaks appends the voted plane's peaks in row-major order, in one rolling
// pass that leaves the plane and its row maxima zeroed for the worker's next
// radius.
//
// Quantization spreads a circle's votes over a small neighborhood of the true
// center, so peaks are found on a 3×3 box sum of the plane, clamped at its
// border. Step y takes the horizontal 3-sums of vote row y into the rowSum
// ring and clears that row, adds rows y-2..y of the ring into smooth row y-1,
// and searches row y-2, whose neighbors above and below are then final.
//
// Each of a box sum's nine cells is at most its row's maximum, so a row whose
// three rows' maxima sum to less than minVotes/3 has every box sum below
// minVotes: it holds no candidate, and as the neighbor of a candidate it
// suppresses nothing. Such a row is neither box-summed nor searched, and
// reads as the zero row; a row more than one row away from every searched
// row is not 3-summed; and a row without votes is not cleared. The
// candidates are exactly those of the full pass.
func (ps *planeScratch) peaks(cands []Circle, region Rect, r float64, minVotes int32, w, h int) []Circle {
	stride := w + 2
	need, rowMax := ps.need[:h], ps.rowMax[:h]
	clear(need)
	for y := range need {
		bound := 3 * int64(rowMax[y])
		if y > 0 {
			bound += 3 * int64(rowMax[y-1])
		}
		if y+1 < h {
			bound += 3 * int64(rowMax[y+1])
		}
		if bound < int64(minVotes) {
			continue
		}
		for t := max(y-1, 0); t <= min(y+1, h-1); t++ {
			need[t] = max(need[t], needSum)
		}
		need[y] = needSearch
	}
	rowSum := func(y int) []int32 {
		if y < 0 || y >= h {
			return ps.zero[:w]
		}
		i := y % 3
		return ps.rowSum[i*w : (i+1)*w]
	}
	smooth := func(y int) []int32 {
		if y < 0 || y >= h || need[y] != needSearch {
			return ps.zero
		}
		i := y % 3
		return ps.smooth[i*stride : (i+1)*stride]
	}
	for y := 0; y < h+2; y++ {
		if y < h {
			row := ps.votes[y*stride : (y+1)*stride]
			if need[y] >= needSum {
				dst := rowSum(y)
				src := row[:len(dst)+2]
				for x := range dst {
					dst[x] = src[x] + src[x+1] + src[x+2]
				}
			}
			if rowMax[y] != 0 {
				clear(row)
				rowMax[y] = 0
			}
		}
		if sy := y - 1; sy >= 0 && sy < h && need[sy] == needSearch {
			a, b, c := rowSum(sy-1), rowSum(sy), rowSum(sy+1)
			dst := smooth(sy)[1 : w+1]
			a, b, c = a[:len(dst)], b[:len(dst)], c[:len(dst)]
			for x := range dst {
				dst[x] = a[x] + b[x] + c[x]
			}
		}
		if py := y - 2; py >= 0 && need[py] == needSearch {
			cands = appendPeaks(cands, smooth(py-1), smooth(py), smooth(py+1),
				minVotes, region.X0-1, float64(py+region.Y0), r)
		}
	}
	return cands
}

// appendPeaks appends the strict local maxima of the box-sum row cur that
// reach minVotes; above and below are its neighbor rows. Ties go to the
// earlier cell in row-major order: an equal neighbor above or to the left
// suppresses the cell, one to the right or below must exceed it. The zero
// cells and rows standing for the outside of the plane never suppress,
// because minVotes is at least 3. Cell x of a row is pixel column x+x0.
func appendPeaks(cands []Circle, above, cur, below []int32, minVotes int32, x0 int, y, r float64) []Circle {
	above, below = above[:len(cur)], below[:len(cur)]
	for x := 1; x < len(cur)-1; x++ {
		v := cur[x]
		if v < minVotes {
			continue
		}
		if cur[x-1] >= v || cur[x+1] > v ||
			above[x-1] >= v || above[x] >= v || above[x+1] >= v ||
			below[x-1] > v || below[x] > v || below[x+1] > v {
			continue
		}
		cands = append(cands, Circle{X: float64(x + x0), Y: y, R: r, Votes: int(v)})
	}
	return cands
}
