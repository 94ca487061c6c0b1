// Package rng implements the deterministic pseudo-random number
// generation used by the synthetic workload generators.
//
// Trace-driven simulation must be exactly repeatable (the paper lists
// repeatability as the first reason for choosing the method), so this
// package deliberately avoids math/rand's global state: every stream is
// an explicit *Stream value derived from an explicit seed, and streams
// can be split so that independent model components (instruction fetch,
// data references, branch outcomes, ...) draw from independent sequences
// regardless of how often the other components consume values.
//
// The core generator is SplitMix64 feeding xoshiro256**, both public
// domain algorithms by Blackman and Vigna.
package rng

import (
	"math"
	"math/bits"
)

// Stream is a deterministic random number stream.  The zero value is not
// valid; use New or Split.
type Stream struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output.  It
// is used for seeding and for Split, as recommended by the xoshiro
// authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed.  Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *Stream {
	var s Stream
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed
	// makes an all-zero state astronomically unlikely, but guard anyway.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
	return &s
}

// Split derives a new independent stream from r.  The child's sequence
// is a pure function of r's state at the time of the call, so a fixed
// split order yields fixed child streams.
func (r *Stream) Split() *Stream {
	x := r.Uint64()
	var s Stream
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 1
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Stream) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly random bits.
func (r *Stream) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n).  n must be positive.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng.Intn: n must be positive")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded
	// integers without division in the common case.
	bound := uint64(n)
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success, in
// {0, 1, 2, ...}.  Mean (1-p)/p.  p must be in (0, 1].  It is
// NewGeom(r, p).Next(); a caller drawing many samples at one p should
// keep the Geom.
func (r *Stream) Geometric(p float64) int { return NewGeom(r, p).Next() }

// Geom samples a geometric distribution by inverse CDF, with the
// logarithm of the failure probability taken once.
type Geom struct {
	r *Stream
	// logq is log(1-p) < 0, or 0 for p == 1, which draws nothing.
	logq float64
}

// NewGeom builds a geometric sampler with success probability p in
// (0, 1] drawing from stream r.
func NewGeom(r *Stream, p float64) Geom {
	if p <= 0 || p > 1 {
		panic("rng.Geometric: p out of (0,1]")
	}
	if p == 1 {
		return Geom{r: r}
	}
	logq := math.Log(1 - p)
	if logq == 0 {
		// 1-p rounds to 1 below p ~ 1.1e-16; without Log1p every draw
		// would be log(u)/0 = -Inf, clamped to 0 instead of the cap.
		logq = math.Log1p(-p)
	}
	return Geom{r: r, logq: logq}
}

// Next returns the next sample, consuming one uniform draw unless
// p == 1.
func (g Geom) Next() int {
	if g.logq == 0 {
		return 0
	}
	u := g.r.Float64()
	// Inverse CDF; guard the log argument away from 0.
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	k := math.Floor(math.Log(u) / g.logq)
	if k < 0 {
		k = 0
	}
	const maxGeom = 1 << 30
	if k > maxGeom {
		k = maxGeom
	}
	return int(k)
}

// Zipf samples integers in [0, n) with probability proportional to
// 1/(i+1)^s.  It precomputes the CDF once; use NewZipf for repeated
// sampling.
type Zipf struct {
	cdf []float64
	r   *Stream
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0 drawing
// from stream r.  s == 0 degenerates to the uniform distribution.
func NewZipf(r *Stream, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng.NewZipf: n must be positive")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf, r: r}
}

// Next returns the next sample in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first cdf entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
