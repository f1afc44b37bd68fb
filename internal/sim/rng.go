package sim

import (
	"math/rand"
	"sync"
)

// RNG is a deterministic, concurrency-safe random stream. Every stochastic
// component in the repository (solvers, sensor noise, fault injection,
// device jitter) draws from an RNG derived from the experiment seed, so that
// a whole experiment is reproducible bit-for-bit from a single integer.
//
// The stream is math/rand's: for a given seed every method returns exactly
// what the same call on rand.New(rand.NewSource(seed)) would.
type RNG struct {
	mu  sync.Mutex
	src *lfSource
	r   *rand.Rand // over src
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	src := new(lfSource)
	src.Seed(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// The lags of math/rand's additive lagged-Fibonacci source, whose n-th
// output is out[n] = out[n-rngLen] + out[n-rngTap] (mod 2⁶⁴).
const (
	rngLen = 607
	rngTap = 273
)

// lfSource runs math/rand's default source stream a block at a time, so
// NormFloat64Fill can read its words straight out of buf. It takes the first
// rngLen outputs from rand.NewSource, which saves copying the stdlib's
// seeding tables, and runs the recurrence itself from there.
type lfSource struct {
	buf [rngLen]uint64 // the latest rngLen outputs, oldest first
	pos int            // index of the next unread output in buf
}

// Seed restarts the stream at seed's first output.
func (s *lfSource) Seed(seed int64) {
	boot := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = boot.Uint64()
	}
	s.pos = 0
}

// refill replaces buf with the next rngLen outputs, in place: the first
// rngTap new words read old words above them, the rest read new ones.
func (s *lfSource) refill() {
	b := &s.buf
	for i := 0; i < rngTap; i++ {
		b[i] += b[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		b[i] += b[i-rngTap]
	}
	s.pos = 0
}

// Uint64 and Int63 make lfSource a rand.Source64; Int63 drops the top bit,
// as the stdlib source does.
func (s *lfSource) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	u := s.buf[s.pos]
	s.pos++
	return u
}

func (s *lfSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Derive returns a new independent stream deterministically derived from this
// one and a label. Component i of a system should derive its stream once at
// construction; the order of later draws in other components then cannot
// perturb it.
func (g *RNG) Derive(label string) *RNG {
	g.mu.Lock()
	defer g.mu.Unlock()
	seed := g.r.Int63()
	for _, b := range []byte(label) {
		seed = seed*1099511628211 + int64(b) // FNV-style fold of the label
	}
	return NewRNG(seed)
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Float64()
}

// Intn returns a uniform int in [0,n). It panics if n <= 0.
func (g *RNG) Intn(n int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Intn(n)
}

// Int63 returns a non-negative uniform int64.
func (g *RNG) Int63() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Int63()
}

// NormFloat64 returns a standard normal deviate.
func (g *RNG) NormFloat64() float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.NormFloat64()
}

// Normal returns a normal deviate with the given mean and standard deviation.
func (g *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*g.NormFloat64()
}

// NormFloat64Fill fills dst with standard normal deviates: exactly the ones
// len(dst) consecutive NormFloat64 calls would return, so batching a hot
// loop's draws does not perturb the stream. It takes the stream lock once
// for the whole batch and runs the ziggurat's fast path inline over runs of
// the source's buffered words, one run per refill or slow draw; the rare
// draws that miss the fast path go to normSlow, which reads on from the
// source.
func (g *RNG) NormFloat64Fill(dst []float64) {
	g.mu.Lock()
	s := g.src
	for len(dst) > 0 {
		if s.pos == rngLen {
			s.refill()
		}
		words := s.buf[s.pos:]
		n := min(len(words), len(dst))
		words, run := words[:n], dst[:n]
		k := 0
		for ; k < n; k++ {
			j := int32(uint32(words[k] >> 31)) // (*rand.Rand).Uint32's bits
			i := j & 0x7F
			if absInt32(j) >= kn[i] {
				break
			}
			run[k] = float64(j) * wn64[i]
		}
		s.pos += k
		dst = dst[k:]
		if k < n {
			s.pos++
			dst[0] = normSlow(s, int32(uint32(words[k]>>31)))
			dst = dst[1:]
		}
	}
	g.mu.Unlock()
}

// Uniform returns a uniform value in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.Float64()
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
// It is used to perturb modeled action durations.
func (g *RNG) Jitter(base float64, frac float64) float64 {
	if frac <= 0 {
		return base
	}
	return base * g.Uniform(1-frac, 1+frac)
}

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.r.Perm(n)
}

// Shuffle permutes n elements using the provided swap function.
func (g *RNG) Shuffle(n int, swap func(i, j int)) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.r.Shuffle(n, swap)
}

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.Float64() < p
}
