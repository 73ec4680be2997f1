package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// engines returns one instance of every Source implementation, freshly
// seeded, keyed by name.
func engines(seed uint64) map[string]Source {
	return map[string]Source{
		"splitmix64": NewSplitMix64(seed),
		"xoshiro256": NewXoshiro256(seed),
		"counter":    &counterSource{c: Counter{Seed: seed}},
	}
}

// counterSource adapts Counter to the Source interface for the shared
// statistical tests.
type counterSource struct {
	c Counter
	i uint64
}

func (s *counterSource) Uint64() uint64 {
	v := s.c.At(s.i)
	s.i++
	return v
}

func TestXoshiroJumpDisjoint(t *testing.T) {
	// After a Jump, the stream must not overlap with the original prefix.
	a := NewXoshiro256(7)
	prefix := make(map[uint64]bool, 4096)
	for i := 0; i < 4096; i++ {
		prefix[a.Uint64()] = true
	}
	b := NewXoshiro256(7)
	b.Jump()
	for i := 0; i < 4096; i++ {
		if prefix[b.Uint64()] {
			t.Fatalf("jumped stream collided with original prefix at step %d", i)
		}
	}
}

func TestU01Range(t *testing.T) {
	for name, src := range engines(1) {
		for i := 0; i < 100000; i++ {
			v := U01(src)
			if !(v > 0 && v <= 1) {
				t.Fatalf("%s: U01 out of (0,1]: %v", name, v)
			}
			w := U01CO(src)
			if !(w >= 0 && w < 1) {
				t.Fatalf("%s: U01CO out of [0,1): %v", name, w)
			}
		}
	}
}

func TestU01Moments(t *testing.T) {
	const n = 200000
	for name, src := range engines(99) {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			v := U01(src)
			sum += v
			sumsq += v * v
		}
		mean := sum / n
		variance := sumsq/n - mean*mean
		if math.Abs(mean-0.5) > 0.005 {
			t.Errorf("%s: uniform mean = %v, want 0.5", name, mean)
		}
		if math.Abs(variance-1.0/12) > 0.005 {
			t.Errorf("%s: uniform variance = %v, want 1/12", name, variance)
		}
	}
}

func TestUniformRange(t *testing.T) {
	src := NewXoshiro256(3)
	for i := 0; i < 100000; i++ {
		v := Uniform(src, 2, 5)
		if !(v > 2 && v <= 5) {
			t.Fatalf("Uniform(2,5) out of range: %v", v)
		}
	}
}

func TestExponentialMoments(t *testing.T) {
	const n = 300000
	for _, rate := range []float64{0.25, 1, 4, 1000} {
		src := NewXoshiro256(5)
		var sum float64
		for i := 0; i < n; i++ {
			v := Exponential(src, rate)
			if v < 0 {
				t.Fatalf("negative exponential variate %v", v)
			}
			sum += v
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.02 {
			t.Errorf("Exponential(rate=%v) mean = %v, want %v", rate, mean, want)
		}
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	Exponential(NewXoshiro256(1), 0)
}

func TestGeometricSkipMoments(t *testing.T) {
	const n = 200000
	for _, p := range []float64{0.9, 0.5, 0.1, 0.01} {
		src := NewXoshiro256(11)
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(GeometricSkip(src, p))
		}
		mean := sum / n
		want := (1 - p) / p // mean of geometric counting failures
		tol := 0.03 * (want + 1)
		if math.Abs(mean-want) > tol {
			t.Errorf("GeometricSkip(p=%v) mean = %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricSkipEdgeCases(t *testing.T) {
	src := NewXoshiro256(1)
	if got := GeometricSkip(src, 1); got != 0 {
		t.Errorf("GeometricSkip(p=1) = %d, want 0", got)
	}
	if got := GeometricSkip(src, 1.5); got != 0 {
		t.Errorf("GeometricSkip(p=1.5) = %d, want 0", got)
	}
	// A uniform sampler whose largest key is exactly 0 (a U01CO draw of
	// 0) skips at p = 0: it never succeeds, so the skip is the cap.
	if got := GeometricSkip(src, 0); got != math.MaxInt32 {
		t.Errorf("GeometricSkip(p=0) = %d, want %d", got, math.MaxInt32)
	}
	// Extremely small p must not overflow int.
	v := GeometricSkip(src, 1e-300)
	if v < 0 {
		t.Errorf("GeometricSkip(tiny p) negative: %d", v)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	const n = 200000
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		src := NewXoshiro256(17)
		hits := 0
		for i := 0; i < n; i++ {
			if Bernoulli(src, p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	src := NewXoshiro256(23)
	counts := make([]int, 7)
	const n = 140000
	for i := 0; i < n; i++ {
		v := Intn(src, 7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 0.05*n/7.0 {
			t.Errorf("Intn(7) bucket %d count %d deviates from uniform", i, c)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	src := NewXoshiro256(29)
	const n = 300000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := Normal(src, 10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want 10", mean)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Errorf("Normal variance = %v, want 9", variance)
	}
}

func TestParetoTail(t *testing.T) {
	src := NewXoshiro256(31)
	const n = 200000
	over2 := 0
	for i := 0; i < n; i++ {
		v := Pareto(src, 2)
		if v < 1 {
			t.Fatalf("Pareto below scale: %v", v)
		}
		if v > 2 {
			over2++
		}
	}
	// P[X > 2] = 2^-2 = 0.25 for shape 2.
	got := float64(over2) / n
	if math.Abs(got-0.25) > 0.01 {
		t.Errorf("Pareto(2) tail P[X>2] = %v, want 0.25", got)
	}
}

func TestCounterIsStateless(t *testing.T) {
	c := Counter{Seed: 123}
	if err := quick.Check(func(i uint64) bool {
		return c.At(i) == c.At(i) && c.U01At(i) > 0 && c.U01At(i) <= 1
	}, nil); err != nil {
		t.Error(err)
	}
	// Different seeds must give different streams almost everywhere.
	d := Counter{Seed: 124}
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if c.At(i) == d.At(i) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("counter streams for adjacent seeds agree at %d/1000 indices", same)
	}
}

func TestMix64Bijective(t *testing.T) {
	// Spot-check injectivity on a sample; Mix64 is a documented bijection.
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		v := Mix64(i)
		if j, dup := seen[v]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, j)
		}
		seen[v] = i
	}
}

// Kolmogorov-Smirnov test of U01 uniformity for every engine.
func TestU01KolmogorovSmirnov(t *testing.T) {
	const n = 20000
	for name, src := range engines(77) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = U01(src)
		}
		sortFloats(xs)
		var d float64
		for i, x := range xs {
			lo := x - float64(i)/n
			hi := float64(i+1)/n - x
			if lo > d {
				d = lo
			}
			if hi > d {
				d = hi
			}
		}
		// Critical value at alpha ~ 1e-4: ~1.95/sqrt(n).
		if limit := 1.95 / math.Sqrt(n); d > limit {
			t.Errorf("%s: KS statistic %v exceeds %v", name, d, limit)
		}
	}
}

func sortFloats(xs []float64) {
	// Insertion-free: simple quicksort to avoid importing sort in tests of
	// the bottom-most package.
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			p := xs[(lo+hi)/2]
			i, j := lo, hi-1
			for i <= j {
				for xs[i] < p {
					i++
				}
				for xs[j] > p {
					j--
				}
				if i <= j {
					xs[i], xs[j] = xs[j], xs[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j+1)
				lo = i
			} else {
				qs(i, hi)
				hi = j + 1
			}
		}
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
	}
	qs(0, len(xs))
}

func BenchmarkXoshiro256(b *testing.B) {
	src := NewXoshiro256(1)
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += src.Uint64()
	}
	_ = acc
}

func BenchmarkExponential(b *testing.B) {
	src := NewXoshiro256(1)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += Exponential(src, 2)
	}
	_ = acc
}

func BenchmarkCounterAt(b *testing.B) {
	c := Counter{Seed: 9}
	var acc uint64
	for i := 0; i < b.N; i++ {
		acc += c.At(uint64(i))
	}
	_ = acc
}

// TestCounterStreamMatchesCounter pins the CounterStream fast path to the
// canonical Counter: hoisting the seed mix and strength-reducing the
// counter multiply must not change a single bit, or every recorded
// synthetic workload would silently change identity.
func TestCounterStreamMatchesCounter(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeefcafe} {
		c := Counter{Seed: seed}
		s := c.Stream()
		for _, i := range []uint64{0, 1, 2, 63, 1 << 20, 1<<40 + 7} {
			if got, want := s.At(i), c.At(i); got != want {
				t.Fatalf("seed=%d i=%d: Stream().At=%x Counter.At=%x", seed, i, got, want)
			}
			if got, want := s.U01At(i), c.U01At(i); got != want {
				t.Fatalf("seed=%d i=%d: Stream().U01At=%v Counter.U01At=%v", seed, i, got, want)
			}
		}
	}
}

// TestXoshiroStateRoundTrip checks that a marshalled engine resumes its
// stream exactly, and that malformed states are refused.
func TestXoshiroStateRoundTrip(t *testing.T) {
	x := NewXoshiro256(17)
	for range 5 {
		x.Uint64()
	}
	b, err := x.MarshalBinary()
	if err != nil || len(b) != 32 {
		t.Fatalf("MarshalBinary: %d bytes, %v", len(b), err)
	}
	var y Xoshiro256
	if err := y.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	for i := range 100 {
		if got, want := y.Uint64(), x.Uint64(); got != want {
			t.Fatalf("draw %d after restore: %x, want %x", i, got, want)
		}
	}
	for _, bad := range [][]byte{nil, b[:31], append(b, 0), make([]byte, 32)} {
		if err := y.UnmarshalBinary(bad); err == nil {
			t.Errorf("UnmarshalBinary accepted a %d-byte state %x", len(bad), bad)
		}
	}
}

// TestU01AffineFillMatchesPerIndex pins the bulk fill, on each path this
// build can take, to per-index evaluation bit-for-bit: every length up to
// 40 (the vector kernel's blocks of eight plus the Go loop's tail) and two
// shard-sized ones past the kernel's chunk, bases whose counters wrap
// 2^64, and affine maps whose multiply-add rounds, underflows to
// subnormals or nears overflow.
func TestU01AffineFillMatchesPerIndex(t *testing.T) {
	c := Counter{Seed: 991}
	s := c.Stream()
	var lens []int
	for n := 0; n <= 40; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 12500, 50000)
	bases := []uint64{0, 9, 1 << 30, 1<<63 - 5, math.MaxUint64 - 20, math.MaxUint64}
	maps := [][2]float64{{0, 1}, {0, 100}, {2.5, 97.5}, {0, 5e-324}, {1, math.MaxFloat64 / 4}}
	paths := []struct {
		name string
		vec  bool
	}{{"kernel", true}, {"go", false}}
	if !vecFill {
		t.Log("no vector fill kernel on this CPU or GOARCH; only the Go loop ran")
		paths = paths[1:]
	}
	defer func(saved bool) { vecFill = saved }(vecFill)
	for _, path := range paths {
		vecFill = path.vec
		for _, n := range lens {
			dst := make([]float64, n)
			for _, base := range bases {
				for _, m := range maps {
					lo, scale := m[0], m[1]
					s.U01AffineFill(base, dst, lo, scale)
					for j := range dst {
						want := lo + float64(c.U01At(base+uint64(j))*scale)
						if math.Float64bits(dst[j]) != math.Float64bits(want) {
							t.Fatalf("%s: n=%d base=%d lo=%v scale=%v j=%d: fill=%x per-index=%x",
								path.name, n, base, lo, scale, j, math.Float64bits(dst[j]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestU01CutMatchesFloatTest checks the integer hot-key test against
// U01At(i) <= p on words at, just below and just above each cut, for
// cuts on and between the 2^-53 grid and at the ends of the range.
func TestU01CutMatchesFloatTest(t *testing.T) {
	ps := []float64{math.NaN(), math.Inf(-1), -1, 0, 0x1p-60, 0x1p-53, 0.01, 0.3, 0.5,
		math.Nextafter(1, 0), 1, 2, math.Inf(1)}
	for k := 1; k <= 3; k++ {
		g := float64(k) * 0x1p-53
		ps = append(ps, math.Nextafter(g, 0), g, math.Nextafter(g, 2))
	}
	for _, q := range []float64{0.01, 0.3, 0.75} {
		g := math.Floor(q*(1<<53)) * 0x1p-53
		ps = append(ps, math.Nextafter(g, 0), g, math.Nextafter(g, 2))
	}
	sm := NewSplitMix64(5)
	for _, p := range ps {
		cut := U01Cut(p)
		for _, hi := range []uint64{0, 1, cut - 1, cut, cut + 1, 1<<53 - 1} {
			if hi >= 1<<53 {
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1, sm.Uint64() & (1<<11 - 1)} {
				x := hi<<11 | low
				if got, want := x>>11 < cut, toU01(x) <= p; got != want {
					t.Fatalf("p=%v x=%#x: integer test %v, U01 test %v", p, x, got, want)
				}
			}
		}
	}
}

// BenchmarkU01AffineFill fills one node_bulk scan shard's weights
// (12,500 items) with the vector kernel and with the Go loop; without a
// kernel the kernel sub-benchmark is skipped.
func BenchmarkU01AffineFill(b *testing.B) {
	s := Counter{Seed: 7}.Stream()
	dst := make([]float64, 12500)
	defer func(saved bool) { vecFill = saved }(vecFill)
	for _, path := range []struct {
		name string
		vec  bool
	}{{"kernel", vecFill}, {"go", false}} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "kernel" && !path.vec {
				b.Skip("no vector fill kernel on this CPU or GOARCH")
			}
			vecFill = path.vec
			var base uint64
			for b.Loop() {
				s.U01AffineFill(base, dst, 2.5, 97.5)
				base += uint64(len(dst))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/item")
		})
	}
}
