package scenario

import (
	"math"

	"reservoir/internal/rng"
)

// Sequential variates for the arrival processes. Each (pe, round) draws
// from its own freshly seeded substream (see Source.subSeed), so a
// variable number of underlying uniforms per draw cannot leak state
// between batches — the draw stays a pure function of (seed, pe, round).

// poisson draws a Poisson(mean) variate by Knuth's product-of-uniforms
// method, chunked so exp(-mean) never underflows: Poisson(a+b) is the sum
// of independent Poisson(a) and Poisson(b).
func poisson(src rng.Source, mean float64) int {
	const chunk = 100
	n := 0
	for mean > 0 {
		m := mean
		if m > chunk {
			m = chunk
		}
		mean -= m
		limit := math.Exp(-m)
		prod := 1.0
		for {
			prod *= rng.U01(src)
			if prod <= limit {
				break
			}
			n++
		}
	}
	return n
}

// gamma draws a Gamma(shape, 1) variate via Marsaglia–Tsang; shapes below
// 1 use the boost G(a) = G(a+1)·U^{1/a}.
func gamma(src rng.Source, shape float64) float64 {
	if shape < 1 {
		return gamma(src, shape+1) * math.Pow(rng.U01(src), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.Normal(src, 0, 1)
		v := 1 + float64(c*x)
		if v <= 0 {
			continue
		}
		v = float64(v * v * v) // rounded, so 1-v below cannot fuse
		u := rng.U01(src)
		if u < 1-float64(0.0331*x*x*x*x) {
			return d * v
		}
		if math.Log(u) < float64(0.5*x*x)+float64(d*(1-v+math.Log(v))) {
			return d * v
		}
	}
}

// weibull draws a Weibull(shape, scale 1) variate by inversion.
func weibull(src rng.Source, shape float64) float64 {
	return math.Pow(-math.Log(rng.U01(src)), 1/shape)
}
