// Package rng provides the pseudo-random number generators and random
// variates used throughout the reservoir sampling library.
//
// The paper (Sec 6.2) uses Intel MKL's Mersenne Twister; this package
// provides xoshiro256** (the default engine, faster and with a much
// smaller state), splitmix64 (seeding and mixing), and a stateless
// counter-based generator used to synthesize arbitrarily large
// mini-batches in O(1) memory.
//
// All variate helpers are written against the small Source interface so any
// engine can back them.
//
// Every draw must be the same bits on every GOARCH. A product that feeds a
// sum is therefore wrapped in float64(...): the Go spec makes the
// conversion round, which keeps arm64 from fusing a + b*c into one
// multiply-add that rounds once where amd64 rounds twice. The other
// deterministic packages follow the same rule.
package rng

import (
	"math"
	"math/bits"
)

// Source is a stream of 64-bit pseudo-random words. All engines in this
// package implement it.
type Source interface {
	Uint64() uint64
}

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// primarily used to seed other generators and as the finalizer of the
// counter-based generator, but is a fine (if statistically weaker) engine
// on its own.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 { return &SplitMix64{state: seed} }

// Uint64 returns the next 64-bit word of the sequence.
func (s *SplitMix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return Mix64(s.state)
}

// Mix64 applies the splitmix64 finalizer to x. It is a bijective mixing
// function with good avalanche behaviour, suitable for counter-based
// generation: Mix64(seed^counter-derived value) yields an independent-looking
// stream indexed by the counter.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Xoshiro256 implements the xoshiro256** 1.0 generator of Blackman and
// Vigna. It is the default engine of the library: 256 bits of state, a
// period of 2^256-1 and excellent statistical quality.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro256 returns a xoshiro256** engine whose state is derived from
// seed via splitmix64, as recommended by the authors.
func NewXoshiro256(seed uint64) *Xoshiro256 {
	sm := NewSplitMix64(seed)
	x := &Xoshiro256{}
	for i := range x.s {
		x.s[i] = sm.Uint64()
	}
	// An all-zero state would be a fixed point; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if x.s[0]|x.s[1]|x.s[2]|x.s[3] == 0 {
		x.s[0] = 0x9e3779b97f4a7c15
	}
	return x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64-bit word of the sequence.
func (x *Xoshiro256) Uint64() uint64 {
	result := rotl(x.s[1]*5, 7) * 9
	t := x.s[1] << 17
	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = rotl(x.s[3], 45)
	return result
}

// Jump advances the generator by 2^128 steps, equivalent to 2^128 calls to
// Uint64. It can be used to partition a single stream into non-overlapping
// substreams, one per PE.
func (x *Xoshiro256) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var s0, s1, s2, s3 uint64
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}

// Counter is a stateless, counter-based generator: the i-th value of the
// stream identified by Seed is Mix64-derived from (Seed, i). It allows
// synthetic mini-batches to be "stored" in O(1) memory: the weight of item i
// can be recomputed at any time.
type Counter struct {
	Seed uint64
}

// At returns the i-th 64-bit word of the stream.
func (c Counter) At(i uint64) uint64 {
	// Two rounds of mixing with distinct odd constants decorrelate seed
	// and counter sufficiently for our statistical tests.
	return Mix64(Mix64(c.Seed^0x2545f4914f6cdd1d) + i*0x9e3779b97f4a7c15)
}

// U01At returns the i-th uniform variate in (0,1] of the stream.
func (c Counter) U01At(i uint64) float64 { return toU01(c.At(i)) }

// Stream hoists the counter's seed-dependent inner mix, which At
// recomputes on every call. The batch-synthesis hot paths fill tens of
// thousands of weights per round, so the loop-invariant Mix64 is worth
// naming: CounterStream.At(i) == Counter.At(i) bit-for-bit, at half the
// mixing cost.
func (c Counter) Stream() CounterStream {
	return CounterStream{h: Mix64(c.Seed ^ 0x2545f4914f6cdd1d)}
}

// CounterStream is a Counter with the seed mix precomputed.
type CounterStream struct {
	h uint64
}

// phi is the counter step: word i of a stream mixes h + i*phi.
const phi uint64 = 0x9e3779b97f4a7c15

// At returns the i-th 64-bit word of the stream.
func (s CounterStream) At(i uint64) uint64 {
	return Mix64(s.h + i*phi)
}

// U01At returns the i-th uniform variate in (0,1] of the stream.
func (s CounterStream) U01At(i uint64) float64 { return toU01(s.At(i)) }

// U01AffineFill fills dst[j] = lo + U01At(base+j)*scale for every j in
// one pass. On CPUs with AVX-512 a vector kernel fills the leading
// multiple of eight items (fill_amd64.s); the Go loop fills the rest, and
// everything elsewhere. The counter multiply is strength-reduced to an
// addition and the loop is unrolled four wide so the Mix64 chains
// overlap. Both paths are bit-identical to calling U01At per index.
func (s CounterStream) U01AffineFill(base uint64, dst []float64, lo, scale float64) {
	v := s.h + base*phi
	i := u01AffineFillVec(v, dst, lo, scale)
	v += uint64(i) * phi
	for ; i+4 <= len(dst); i += 4 {
		d := dst[i : i+4 : i+4] // one bounds check for the four stores
		v1, v2, v3 := v+phi, v+phi+phi, v+phi+phi+phi
		d[0] = lo + float64(toU01(Mix64(v))*scale)
		d[1] = lo + float64(toU01(Mix64(v1))*scale)
		d[2] = lo + float64(toU01(Mix64(v2))*scale)
		d[3] = lo + float64(toU01(Mix64(v3))*scale)
		v = v3 + phi
	}
	for ; i < len(dst); i++ {
		dst[i] = lo + float64(toU01(Mix64(v))*scale)
		v += phi
	}
}

// U01Cut returns the integer form of the test U01At(i) <= p: for every
// 64-bit word x, toU01(x) <= p exactly when x>>11 < U01Cut(p). A bulk
// kernel can then decide on the raw counter word without converting it.
// toU01(x) is (x>>11 + 1)·2^-53, and scaling p by 2^53 is exact, so the
// test is x>>11 + 1 <= p·2^53, i.e. x>>11 < floor(p·2^53).
func U01Cut(p float64) uint64 {
	switch {
	case !(p > 0): // also NaN, which no draw is <=
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(p * (1 << 53))
}

// --- Variates ---------------------------------------------------------

// toU01 maps a random 64-bit word to the half-open interval (0, 1],
// using the top 53 bits so every value is an exactly representable
// multiple of 2^-53. The paper's rand() draws from (0,1]; excluding 0 keeps
// log(rand()) finite.
func toU01(x uint64) float64 {
	// The word is below 2^53, so converting it as an int64 is exact and
	// spares the compiler's branch for uint64 values of 2^63 and up.
	return float64(int64(x>>11)+1) * (1.0 / (1 << 53))
}

// U01 draws a uniform variate from (0, 1].
func U01(s Source) float64 { return toU01(s.Uint64()) }

// U01CO draws a uniform variate from [0, 1). The conversion of the
// (exact) product keeps a caller's 2*U01CO(s) - 1 from fusing into an FMA.
func U01CO(s Source) float64 {
	return float64(float64(s.Uint64()>>11) * (1.0 / (1 << 53)))
}

// Uniform draws from (a, b], matching the paper's rand(a,b) := a + rand()(b-a).
func Uniform(s Source, a, b float64) float64 { return a + float64(U01(s)*(b-a)) }

// Exponential draws an exponential variate with the given rate parameter,
// i.e. -ln(rand())/rate. It panics if rate is not strictly positive.
func Exponential(s Source, rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exponential requires rate > 0")
	}
	return -math.Log(U01(s)) / rate
}

// GeometricSkip returns the number of failures before the first success of
// a Bernoulli process with success probability p, i.e. a geometric variate
// on {0, 1, 2, ...} computed as floor(ln(rand()) / ln(1-p)) (Devroye).
// For p >= 1 it returns 0, and for p == 0, which never succeeds, the
// math.MaxInt32 cap that tiny p reach too. It panics if p < 0.
func GeometricSkip(s Source, p float64) int {
	if p < 0 {
		panic("rng: GeometricSkip requires p >= 0")
	}
	if p == 0 {
		return math.MaxInt32
	}
	if p >= 1 {
		return 0
	}
	v := math.Log(U01(s)) / math.Log1p(-p)
	if v >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(v)
}

// Bernoulli reports success with probability p.
func Bernoulli(s Source, p float64) bool { return U01CO(s) < p }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire-style bounded generation without modulo bias.
func Intn(s Source, n int) int {
	if n <= 0 {
		panic("rng: Intn requires n > 0")
	}
	un := uint64(n)
	threshold := -un % un
	for {
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Normal draws a normal variate with the given mean and standard deviation
// using the polar Box-Muller method (no caching of the spare to keep the
// generator stateless with respect to variates).
func Normal(s Source, mean, stddev float64) float64 {
	for {
		u := 2*U01CO(s) - 1
		v := 2*U01CO(s) - 1
		r := float64(u*u) + float64(v*v)
		if r > 0 && r < 1 {
			return mean + float64(stddev*u*math.Sqrt(-2*math.Log(r)/r))
		}
	}
}

// Pareto draws a Pareto(shape) variate with scale 1: values >= 1 with
// P[X > x] = x^-shape. Used by the heavy-hitter example workloads.
func Pareto(s Source, shape float64) float64 {
	if shape <= 0 {
		panic("rng: Pareto requires shape > 0")
	}
	return math.Pow(U01(s), -1/shape)
}
