package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Float64(), b.Float64(); x != y {
			t.Fatalf("draw %d: %v != %v for same seed", i, x, y)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestDeriveIsDeterministicAndLabelSensitive(t *testing.T) {
	d1 := NewRNG(7).Derive("ot2")
	d2 := NewRNG(7).Derive("ot2")
	d3 := NewRNG(7).Derive("camera")
	x1, x2, x3 := d1.Float64(), d2.Float64(), d3.Float64()
	if x1 != x2 {
		t.Fatalf("same label derive differs: %v vs %v", x1, x2)
	}
	if x1 == x3 {
		t.Fatalf("different labels derive identically: %v", x1)
	}
}

func TestDeriveInsulatesStreams(t *testing.T) {
	// Draws on one derived stream must not perturb a sibling derived earlier.
	root := NewRNG(99)
	a := root.Derive("a")
	b := root.Derive("b")
	want := b.Float64()

	root2 := NewRNG(99)
	a2 := root2.Derive("a")
	for i := 0; i < 10; i++ {
		a2.Float64() // extra draws on a
	}
	b2 := root2.Derive("b")
	if got := b2.Float64(); got != want {
		t.Fatalf("sibling stream perturbed: %v != %v", got, want)
	}
	_ = a
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	g := NewRNG(4)
	for i := 0; i < 1000; i++ {
		v := g.Jitter(100, 0.1)
		if v < 90 || v > 110+1e-9 {
			t.Fatalf("Jitter(100, 0.1) = %v out of [90,110]", v)
		}
	}
	if v := g.Jitter(100, 0); v != 100 {
		t.Fatalf("Jitter with frac=0 = %v, want 100", v)
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(5)
	const n = 20000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("sample mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("sample stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestBoolEdgeCases(t *testing.T) {
	g := NewRNG(6)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if g.Bool(-0.5) {
			t.Fatal("Bool(<0) returned true")
		}
		if !g.Bool(1.5) {
			t.Fatal("Bool(>1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := NewRNG(7)
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("Bool(0.3) frequency %v, want ~0.3", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(8)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("Perm(20) invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGConcurrentUse(t *testing.T) {
	g := NewRNG(9)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				g.Float64()
				g.Intn(10)
				g.NormFloat64()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

// TestNormFloat64FillMatchesStdlib pins RNG to math/rand's stream bit for
// bit: fills of every size around the source's 607-word block, interleaved
// with the other draws, against rand.New(rand.NewSource(seed)).
func TestNormFloat64FillMatchesStdlib(t *testing.T) {
	t.Run("seeds", func(t *testing.T) {
		seeds := []int64{0, 1, 2, 3, 5, 7, 42, 99, 1234, 65537, 1 << 31, 1<<31 - 1, 1<<62 + 12345,
			math.MaxInt64, -1, -2, -3, -42, -65537, -(1 << 31), -1 << 40, math.MinInt64, 20231112, -20231112}
		sizes := []int{1, 606, 607, 608, 3, 1213, 30720, 99, 1, 4801, 31, 2}
		const total = 10_000_000
		buf := make([]float64, 30720)
		tails := 0
		for _, seed := range seeds {
			g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
			for drawn, step := 0, 0; drawn < total/len(seeds)+1; step++ {
				n := sizes[step%len(sizes)]
				g.NormFloat64Fill(buf[:n])
				for k, v := range buf[:n] {
					if want := ref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: fill[%d] of %d = %v, stdlib %v", seed, step, k, n, v, want)
					}
					if math.Abs(v) > rn {
						tails++
					}
				}
				drawn += n
				switch step % 5 {
				case 0:
					if v, want := g.Float64(), ref.Float64(); v != want {
						t.Fatalf("seed %d step %d: Float64 = %v, stdlib %v", seed, step, v, want)
					}
				case 1:
					if v, want := g.Intn(1000), ref.Intn(1000); v != want {
						t.Fatalf("seed %d step %d: Intn = %d, stdlib %d", seed, step, v, want)
					}
				case 2:
					if v, want := g.Int63(), ref.Int63(); v != want {
						t.Fatalf("seed %d step %d: Int63 = %d, stdlib %d", seed, step, v, want)
					}
				case 3:
					if v, want := g.NormFloat64(), ref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("seed %d step %d: NormFloat64 = %v, stdlib %v", seed, step, v, want)
					}
				case 4:
					d := g.Derive("camera")
					dseed := ref.Int63()
					for _, b := range []byte("camera") {
						dseed = dseed*1099511628211 + int64(b)
					}
					dref := rand.New(rand.NewSource(dseed))
					d.NormFloat64Fill(buf[:700])
					for k, v := range buf[:700] {
						if want := dref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("seed %d step %d: derived fill[%d] = %v, stdlib %v", seed, step, k, v, want)
						}
					}
				}
			}
		}
		// Only the base strip's tail returns |v| > rn; draws from it prove
		// that path ran and kept the stream in step.
		if tails == 0 {
			t.Fatal("no draw took the base-strip tail")
		}
	})

	// Random words almost never land on a fast-path threshold, so plant
	// them: for every strip and sign, the two words nearest kn[i] (one
	// inside the fast path, one outside), each followed by ordinary stream
	// words, against the stdlib's NormFloat64 reading the same words. Any
	// change to kn that alters a single draw moves one of these.
	t.Run("fast-path edges", func(t *testing.T) {
		var out [4]float64
		for i := int64(0); i < 128; i++ {
			for _, sign := range []int64{1, -1} {
				for m := int64(kn[i]) - 128; m < int64(kn[i])+128; m++ {
					j := sign * m
					if m < 0 || j < math.MinInt32 || j > math.MaxInt32 || j&0x7F != i {
						continue
					}
					g := NewRNG(j)
					g.src.buf[0] = uint64(uint32(j)) << 31
					cp := *g.src
					ref := rand.New(&cp)
					g.NormFloat64Fill(out[:])
					for k, v := range out {
						if want := ref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("strip %d, j = %d: fill[%d] = %v, stdlib %v", i, j, k, v, want)
						}
					}
				}
			}
		}
	})

	// The wedge test decides most draws by lines above and below the curve
	// and calls math.Exp only between them, so a draw whose float32 left
	// side lands within an ulp of float32(exp(−x²/2)) is where a wrong
	// margin would show. Plant such draws: for every strip and sign, the
	// words j where the lines touch the curve (each end of the strip for the
	// chord, its middle in x² for the tangent), each followed by the uniform
	// word that puts the left side one ulp below, on, or one ulp above the
	// rounded curve.
	t.Run("wedge edges", func(t *testing.T) {
		var out [4]float64
		var on, below, above int
		for i := int32(1); i < 128; i++ {
			xa := float64(kn[i]) * float64(wn[i])
			xb := (1 << 31) * float64(wn[i])
			mid := math.Sqrt((xa*xa+xb*xb)/2) / float64(wn[i])
			for _, m := range []int64{int64(kn[i]), int64(mid), 1 << 31} {
				for _, sign := range []int64{1, -1} {
					// The word of strip i at or just below sign·m, moved up
					// a strip period when that leaves the wedge or int32.
					j := sign*m - (sign*m-int64(i))&0x7F
					if 0 <= j && j < int64(kn[i]) || j < math.MinInt32 {
						j += 128
					}
					x := float64(j) * float64(wn[i])
					curve := float32(math.Exp(-.5 * x * x))
					for _, target := range []float32{
						math.Nextafter32(curve, 0), curve, math.Nextafter32(curve, 2),
					} {
						// The smallest float32 u whose left side reaches
						// target; the left side is monotone in u.
						lo, hi := uint32(0), math.Float32bits(1)
						for lo < hi {
							mu := lo + (hi-lo)/2
							if fn[i]+math.Float32frombits(mu)*(fn[i-1]-fn[i]) >= target {
								hi = mu
							} else {
								lo = mu + 1
							}
						}
						word := uint64(float64(math.Float32frombits(lo)) * (1 << 63))
						u := float32(float64(word&(1<<63-1)) / (1 << 63))
						if fn[i]+u*(fn[i-1]-fn[i]) != target {
							continue // target is outside the wedge or unreachable
						}
						switch {
						case target < curve:
							below++
						case target == curve:
							on++
						default:
							above++
						}
						g := NewRNG(j)
						g.src.buf[0] = uint64(uint32(j)) << 31
						g.src.buf[1] = word
						cp := *g.src
						ref := rand.New(&cp)
						g.NormFloat64Fill(out[:])
						for k, v := range out {
							if want := ref.NormFloat64(); math.Float64bits(v) != math.Float64bits(want) {
								t.Fatalf("strip %d, j = %d, left side %v, curve %v: fill[%d] = %v, stdlib %v",
									i, j, target, curve, k, v, want)
							}
						}
					}
				}
			}
		}
		// Every strip and sign can plant all three at the tangent; the
		// chord's ends can fall outside the wedge's left-side range.
		if min(below, on, above) < 254 {
			t.Fatalf("planted %d draws one ulp below the curve, %d on it, %d one ulp above; want ≥ 254 each",
				below, on, above)
		}
	})
}

// TestSourceSeedRestarts re-seeds a used stream through (*rand.Rand).Seed:
// it must start over at the new seed's first output, as the stdlib does.
func TestSourceSeedRestarts(t *testing.T) {
	g := NewRNG(11)
	for i := 0; i < 1000; i++ {
		g.Float64()
	}
	g.r.Seed(-12)
	ref := rand.New(rand.NewSource(-12))
	for i := 0; i < 1000; i++ {
		if v, want := g.Int63(), ref.Int63(); v != want {
			t.Fatalf("draw %d after Seed: %d, stdlib %d", i, v, want)
		}
	}
}
