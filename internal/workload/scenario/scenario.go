// Package scenario is the realistic-workload engine: it composes the
// primitive generators of package workload into named, replayable stream
// scenarios — heavy-tailed weight laws (Zipf, Pareto, lognormal), bursty
// arrival processes (Poisson, Gamma, Weibull, on/off phases), per-PE
// heterogeneity (skewed rates across ranks, hot-key weight concentration),
// and time-varying drift of the weight scale.
//
// Every scenario is synthesized counter-based from (seed, pe, round, i):
// re-requesting any batch reproduces it bit-identically, so scenarios are
// usable everywhere the uniform synthetic stream is — service ingest, node
// mode, chaos resync re-execution, reservoir-verify -match — and stay
// replayable under the determinism analyzer. Batches are workload.SynthBatch values, generated
// in O(1) memory regardless of length.
//
// The statistical acceptance harness (internal/stats/accept) runs the
// samplers over these scenarios and tests the realized inclusion counts
// against theory; see DESIGN.md §7.
package scenario

import (
	"fmt"
	"math"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// maxBatchLen caps one PE's items per round. workload.SynthBatch IDs give
// every (pe, round) a disjoint 2^26-item range; staying well below that
// keeps IDs globally unique even under extreme burst draws.
const maxBatchLen = 1 << 20

// Spec is the JSON-serializable description of one scenario. The zero
// value of every optional field means "use the documented default", so
// specs stay terse on the wire (service ingest requests, node round
// commands and sample dumps all carry them verbatim).
type Spec struct {
	// Name labels the scenario in reports and dumps (presets fill it in).
	Name string `json:"name,omitempty"`

	// Law is the per-item weight distribution: "uniform" (default),
	// "zipf", "pareto", or "lognormal".
	Law string `json:"law,omitempty"`
	// Alpha is the tail exponent: Zipf's P[W=r] ∝ r^-Alpha over
	// {1..ZipfN} (default 1.2), or the Pareto shape (default 1.5).
	Alpha float64 `json:"alpha,omitempty"`
	// ZipfN is the Zipf support size (default 4096). A compiled source
	// holds its 8·ZipfN-byte CDF and a guide table of 4·(M+1) bytes, M the
	// smallest power of two >= ZipfN: 16 KiB at the default, 16 MiB next
	// to the 32 MiB CDF at the maximum 1<<22.
	ZipfN int `json:"zipf_n,omitempty"`
	// Mu/Sigma parameterize the lognormal law exp(Mu + Sigma·Z)
	// (defaults 0 and 1).
	Mu    float64 `json:"mu,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Lo/Hi bound the uniform law (default (0, 100], the paper's range).
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`

	// Arrival modulates the number of items per PE per round around the
	// configured mean length: "constant" (default), "poisson", "bursty"
	// (Gamma-multiplied), "weibull", or "onoff" (square-wave phases).
	Arrival string `json:"arrival,omitempty"`
	// BurstShape is the Gamma/Weibull shape; values below 1 give highly
	// variable, bursty rounds (defaults: bursty 0.5, weibull 0.8).
	BurstShape float64 `json:"burst_shape,omitempty"`
	// OnRounds/OffRounds/OffLevel describe the on/off square wave: each
	// cycle is OnRounds at full rate then OffRounds at OffLevel×rate
	// (defaults 4, 4, 0.1). Phases are staggered by PE rank so the
	// cluster never goes fully quiet.
	OnRounds  int     `json:"on_rounds,omitempty"`
	OffRounds int     `json:"off_rounds,omitempty"`
	OffLevel  float64 `json:"off_level,omitempty"`

	// RateSkew skews arrival rates across ranks: PE r's mean length is
	// proportional to (r+1)^-RateSkew (0 = homogeneous).
	RateSkew float64 `json:"rate_skew,omitempty"`
	// HotFrac/HotBoost concentrate weight on a random HotFrac fraction
	// of items, whose weights are multiplied by HotBoost — the hot-key
	// pattern that dominates real traffic.
	HotFrac  float64 `json:"hot_frac,omitempty"`
	HotBoost float64 `json:"hot_boost,omitempty"`

	// Drift scales all weights by a round-varying factor: "none"
	// (default), "ramp" (1 + DriftRate·round), or "cycle"
	// (1 + DriftRate·sin(2π·round/DriftPeriod)).
	Drift       string  `json:"drift,omitempty"`
	DriftRate   float64 `json:"drift_rate,omitempty"`
	DriftPeriod int     `json:"drift_period,omitempty"`
}

// withDefaults returns the spec with every zero-valued optional field
// replaced by its documented default.
func (s Spec) withDefaults() Spec {
	if s.Law == "" {
		s.Law = "uniform"
	}
	if s.Alpha == 0 {
		if s.Law == "zipf" {
			s.Alpha = 1.2
		} else {
			s.Alpha = 1.5
		}
	}
	if s.ZipfN == 0 {
		s.ZipfN = 4096
	}
	if s.Sigma == 0 {
		s.Sigma = 1
	}
	if s.Lo == 0 && s.Hi == 0 {
		s.Lo, s.Hi = 0, 100
	}
	if s.Arrival == "" {
		s.Arrival = "constant"
	}
	if s.BurstShape == 0 {
		if s.Arrival == "weibull" {
			s.BurstShape = 0.8
		} else {
			s.BurstShape = 0.5
		}
	}
	if s.OnRounds == 0 {
		s.OnRounds = 4
	}
	if s.OffRounds == 0 {
		s.OffRounds = 4
	}
	if s.OffLevel == 0 {
		s.OffLevel = 0.1
	}
	if s.Drift == "" {
		s.Drift = "none"
	}
	if s.DriftPeriod == 0 {
		s.DriftPeriod = 16
	}
	return s
}

// Validate checks the spec (after applying defaults) and returns a
// descriptive error for anything the engine cannot synthesize, including
// a spec whose smallest possible weight underflows to 0.
func (s Spec) Validate() error {
	d := s.withDefaults()
	switch d.Law {
	case "uniform":
		if d.Hi <= d.Lo || d.Lo < 0 {
			return fmt.Errorf("scenario: uniform law needs 0 <= lo < hi, got (%g, %g]", d.Lo, d.Hi)
		}
	case "zipf":
		if d.Alpha <= 0 {
			return fmt.Errorf("scenario: zipf law needs alpha > 0, got %g", d.Alpha)
		}
		if d.ZipfN < 2 || d.ZipfN > 1<<22 {
			return fmt.Errorf("scenario: zipf_n must be in [2, %d], got %d", 1<<22, d.ZipfN)
		}
	case "pareto":
		if d.Alpha <= 0 {
			return fmt.Errorf("scenario: pareto law needs alpha > 0, got %g", d.Alpha)
		}
	case "lognormal":
		if d.Sigma < 0 {
			return fmt.Errorf("scenario: lognormal law needs sigma >= 0, got %g", d.Sigma)
		}
	default:
		return fmt.Errorf("scenario: unknown weight law %q (want uniform, zipf, pareto, or lognormal)", s.Law)
	}
	switch d.Arrival {
	case "constant", "poisson":
	case "bursty", "weibull":
		if d.BurstShape <= 0 {
			return fmt.Errorf("scenario: %s arrivals need burst_shape > 0, got %g", d.Arrival, d.BurstShape)
		}
	case "onoff":
		if d.OnRounds < 1 || d.OffRounds < 0 {
			return fmt.Errorf("scenario: onoff arrivals need on_rounds >= 1 and off_rounds >= 0, got %d/%d", d.OnRounds, d.OffRounds)
		}
		if d.OffLevel < 0 || d.OffLevel > 1 {
			return fmt.Errorf("scenario: off_level must be in [0, 1], got %g", d.OffLevel)
		}
	default:
		return fmt.Errorf("scenario: unknown arrival process %q (want constant, poisson, bursty, weibull, or onoff)", s.Arrival)
	}
	if d.RateSkew < 0 {
		return fmt.Errorf("scenario: rate_skew must be >= 0, got %g", d.RateSkew)
	}
	if d.HotFrac < 0 || d.HotFrac > 1 {
		return fmt.Errorf("scenario: hot_frac must be in [0, 1], got %g", d.HotFrac)
	}
	if d.HotFrac > 0 && d.HotBoost <= 0 {
		return fmt.Errorf("scenario: hot_frac > 0 needs hot_boost > 0, got %g", d.HotBoost)
	}
	switch d.Drift {
	case "none":
	case "ramp":
		if d.DriftRate < 0 {
			return fmt.Errorf("scenario: ramp drift needs drift_rate >= 0, got %g", d.DriftRate)
		}
	case "cycle":
		if math.Abs(d.DriftRate) >= 1 {
			return fmt.Errorf("scenario: cycle drift needs |drift_rate| < 1 (weights must stay positive), got %g", d.DriftRate)
		}
		if d.DriftPeriod < 2 {
			return fmt.Errorf("scenario: cycle drift needs drift_period >= 2, got %d", d.DriftPeriod)
		}
	default:
		return fmt.Errorf("scenario: unknown drift %q (want none, ramp, or cycle)", s.Drift)
	}
	if d.minWeight() <= 0 {
		return fmt.Errorf("scenario: the smallest weight this spec can draw underflows to 0 (raise mu, lo/hi or hot_boost)")
	}
	return nil
}

// zMax bounds |Z| of the lognormal law's Box-Muller draw: U01At never
// returns less than 2^-53, so sqrt(-2 ln u1) is at most this.
var zMax = math.Sqrt(-2 * math.Log(0x1p-53))

// minWeight is a lower bound on every weight the validated, defaulted
// spec s can synthesize: the law's smallest draw, times the smallest
// drift scale, times hot_boost when that shrinks a weight. Each factor is
// computed as weightFn computes it at the extreme draw, and rounding is
// monotone, so a positive bound means no weight underflows to 0.
func (s Spec) minWeight() float64 {
	var w float64
	switch s.Law {
	case "uniform":
		w = s.Lo + float64(0x1p-53*(s.Hi-s.Lo))
	case "lognormal":
		w = math.Exp(s.Mu - float64(s.Sigma*zMax))
	default: // zipf ranks and Pareto draws are at least 1
		w = 1
	}
	if s.Drift == "cycle" {
		w *= 1 - math.Abs(s.DriftRate)
	}
	if s.HotFrac > 0 && s.HotBoost < 1 {
		w *= s.HotBoost
	}
	return w
}

// Source compiles the spec into a workload.Source whose batches derive
// deterministically from (seed, pe, round, i). meanLen is the target mean
// items per PE per round before per-PE skew and arrival modulation.
func (s Spec) Source(seed uint64, meanLen int) (*Source, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if meanLen < 1 || meanLen > maxBatchLen {
		return nil, fmt.Errorf("scenario: mean batch length must be in [1, %d], got %d", maxBatchLen, meanLen)
	}
	src := &Source{spec: s.withDefaults(), seed: seed, meanLen: meanLen}
	if src.spec.Law == "zipf" {
		src.zipf = newZipfTable(src.spec.ZipfN, src.spec.Alpha)
	}
	return src, nil
}

// Source is a compiled scenario. It is safe for concurrent NextBatch calls
// with different pe arguments (all state is immutable after compilation).
type Source struct {
	spec    Spec
	seed    uint64
	meanLen int
	zipf    *zipfTable // nil unless law == "zipf"
}

// Spec returns the compiled spec with defaults applied.
func (s *Source) Spec() Spec { return s.spec }

// Domain-separation constants for the independent random substreams one
// (pe, round) consumes. Weights, hot-key marks, and arrival draws must not
// share a stream: reading one would shift the others.
const (
	domainWeight  = 0x77656967 // "weig"
	domainHot     = 0x686f746b // "hotk"
	domainArrival = 0x61727276 // "arrv"
)

// subSeed derives the seed of one substream of one (pe, round).
func (s *Source) subSeed(domain uint64, pe, round int) uint64 {
	x := s.seed ^ rng.Mix64(domain)
	x = rng.Mix64(x ^ rng.Mix64(uint64(pe)*0x9e3779b97f4a7c15+uint64(round)))
	return x
}

// idBase mirrors workload.idBase: every (pe, round) owns a disjoint
// 2^26-item ID range (globally unique for up to 2^19 PEs and 2^19 rounds).
func idBase(pe, round int) uint64 {
	return (uint64(pe)<<19 | uint64(round)) << 26
}

// NextBatch implements workload.Source. The batch is a SynthBatch: items
// are recomputed on demand from the counter streams, never stored. Its
// WBulk fills whole index ranges through the bulk kernels, and W, which
// serves only Batch.At, fills one item through the same kernels.
func (s *Source) NextBatch(pe, round int) workload.Batch {
	g := s.weights(pe, round)
	fill := func(base uint64, dst []float64) { g.fill(base, dst) }
	return &workload.SynthBatch{
		N:      s.BatchLen(pe, round),
		IDBase: idBase(pe, round),
		W: func(i uint64) float64 {
			var w [1]float64
			fill(i, w[:])
			return w[0]
		},
		WBulk: fill,
	}
}

// BatchLen returns the deterministic arrival draw for (pe, round): the
// number of items PE pe receives in that round. Exported so tests can
// KS-test the realized arrival process against its own law.
func (s *Source) BatchLen(pe, round int) int {
	base := float64(s.meanLen) * s.peRate(pe)
	var l float64
	switch s.spec.Arrival {
	case "constant":
		l = base
	case "poisson":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		l = float64(poisson(str, base))
	case "bursty":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		// Gamma(shape)/shape has mean 1; shape < 1 concentrates the mass
		// near 0 with a heavy upper tail — occasional huge rounds.
		l = base * gamma(str, s.spec.BurstShape) / s.spec.BurstShape
	case "weibull":
		str := rng.NewSplitMix64(s.subSeed(domainArrival, pe, round))
		// Weibull(shape) normalized by Γ(1+1/shape) has mean 1.
		l = base * weibull(str, s.spec.BurstShape) / math.Gamma(1+1/s.spec.BurstShape)
	case "onoff":
		// Square wave, phase-staggered by rank so PEs don't burst in
		// lockstep unless the stagger divides the cycle.
		cycle := s.spec.OnRounds + s.spec.OffRounds
		phase := (round + pe) % cycle
		if phase < s.spec.OnRounds {
			l = base
		} else {
			l = base * s.spec.OffLevel
		}
	}
	n := int(math.Round(l))
	if n < 0 {
		n = 0
	}
	if n > maxBatchLen {
		n = maxBatchLen
	}
	return n
}

// peRate is the per-rank arrival-rate multiplier: (pe+1)^-RateSkew. Rank 0
// is the hottest client; higher ranks tail off polynomially.
func (s *Source) peRate(pe int) float64 {
	if s.spec.RateSkew == 0 {
		return 1
	}
	return math.Pow(float64(pe+1), -s.spec.RateSkew)
}

// driftScale is the round-varying weight multiplier.
func (s *Source) driftScale(round int) float64 {
	switch s.spec.Drift {
	case "ramp":
		return 1 + float64(s.spec.DriftRate*float64(round))
	case "cycle":
		return 1 + float64(s.spec.DriftRate*math.Sin(2*math.Pi*float64(round)/float64(s.spec.DriftPeriod)))
	default:
		return 1
	}
}

// batchWeights is the stateless weight synthesis of one (pe, round):
// law draw × drift scale × hot-key boost, each draw from its own counter
// substream, so item i's weight is a pure function of (seed, pe, round,
// i). Both substreams are hoisted once per batch.
type batchWeights struct {
	law      string
	w, h     rng.CounterStream // weight and hot-key substreams
	lo, span float64           // uniform: lo + u·span
	inv      float64           // pareto: u^inv
	mu       float64           // lognormal: exp(mu + sigma·z)
	sigma    float64
	zipf     *zipfTable
	scale    float64 // drift
	cut      uint64  // rng.U01Cut(HotFrac); 0 boosts no item
	boost    float64
}

// weights compiles the weight synthesis of (pe, round).
func (s *Source) weights(pe, round int) batchWeights {
	return batchWeights{
		law:   s.spec.Law,
		w:     rng.Counter{Seed: s.subSeed(domainWeight, pe, round)}.Stream(),
		h:     rng.Counter{Seed: s.subSeed(domainHot, pe, round)}.Stream(),
		lo:    s.spec.Lo,
		span:  s.spec.Hi - s.spec.Lo,
		inv:   -1 / s.spec.Alpha,
		mu:    s.spec.Mu,
		sigma: s.spec.Sigma,
		zipf:  s.zipf,
		scale: s.driftScale(round),
		cut:   rng.U01Cut(s.spec.HotFrac),
		boost: s.spec.HotBoost,
	}
}

// fill sets dst[j] to the weight of item base+j, a pass at a time: the
// uniform draws in one unrolled hashing pass; the Zipf ranks, Pareto
// powers or lognormal transforms in their own pass (a rank lookup's
// mispredicted branches stall hashing fused into its loop); then the
// drift scale and the hot-key boost, whose test compares the hot-key
// stream's words with rng.U01Cut(HotFrac) instead of converting them:
// the same decision as U01At(i) <= HotFrac.
func (g batchWeights) fill(base uint64, dst []float64) {
	switch g.law {
	case "uniform":
		g.w.U01AffineFill(base, dst, g.lo, g.span)
	case "zipf":
		// 0 + u·1 == u exactly, so the affine fill leaves the draws as is.
		g.w.U01AffineFill(base, dst, 0, 1)
		g.zipf.ranks(dst)
	case "pareto":
		g.w.U01AffineFill(base, dst, 0, 1)
		for j, u := range dst {
			dst[j] = math.Pow(u, g.inv)
		}
	case "lognormal":
		// Box-Muller from two counter draws, as workload.NormalWeight.
		for j := range dst {
			i := base + uint64(j)
			u1 := g.w.U01At(2 * i)
			u2 := g.w.U01At(2*i + 1)
			z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
			dst[j] = math.Exp(g.mu + float64(g.sigma*z))
		}
	default:
		// Unreachable: Source() validated the law.
		panic("scenario: uncompiled weight law " + g.law)
	}
	switch {
	case g.cut > 0:
		scale, boost, cut := g.scale, g.boost, g.cut
		for j, w := range dst {
			w *= scale
			if g.h.At(base+uint64(j))>>11 < cut {
				w *= boost
			}
			dst[j] = w
		}
	case g.scale != 1: // w·1 == w, so an unscaled batch skips the pass
		for j := range dst {
			dst[j] *= g.scale
		}
	}
}

// zipfTable is the inverse CDF of one Zipf law, compiled once per source
// and shared by every batch. A draw of u maps to the smallest index r with
// cum[r] >= u, exactly what sort.SearchFloat64s(cum, u) returns. The guide
// table (Chen and Asau's indexed search) replaces that binary search with
// one lookup and a forward scan that averages at most one step, since
// the table has at least as many entries as cum.
type zipfTable struct {
	cum []float64
	// guide[j] = sort.SearchFloat64s(cum, j/m) for j in [0, m], so
	// guide[int(u*m)] never exceeds the answer for u. Entry m covers
	// u = 1, which U01At can return.
	guide []int32
	// m is a power of two >= len(cum), which makes u*m exact.
	m float64
}

func newZipfTable(n int, alpha float64) *zipfTable {
	cum := zipfCumulative(n, alpha)
	m := 1
	for m < n {
		m <<= 1
	}
	// One pass over cum: r is the answer for every j/m in
	// (cum[r-1], cum[r]], i.e. every j up to floor(cum[r]·m), which is
	// exact. cum[n-1] == 1 fills the table through entry m.
	guide := make([]int32, m+1)
	j := 0
	for r, c := range cum {
		for hi := int(c * float64(m)); j <= hi; j++ {
			guide[j] = int32(r)
		}
	}
	return &zipfTable{cum: cum, guide: guide, m: float64(m)}
}

// ranks replaces every draw u in dst, u in [0, 1], with its Zipf weight
// r+1, r the smallest index with cum[r] >= u. Most draws land zero or one
// ranks past their guide entry, so ranks counts those two steps without a
// branch, comparing the non-negative floats by their bit patterns, and
// steps on one at a time only past those two. The scan ends because
// cum[len(cum)-1] == 1.
func (z *zipfTable) ranks(dst []float64) {
	cum, guide, m, last := z.cum, z.guide, z.m, len(z.cum)-1
	for j, u := range dst {
		r := int(guide[int(u*m)])
		ub := int64(math.Float64bits(u))
		r -= int((int64(math.Float64bits(cum[r]))-ub)>>63 + (int64(math.Float64bits(cum[min(r+1, last)]))-ub)>>63)
		for cum[r] < u {
			r++
		}
		dst[j] = float64(r + 1)
	}
}

// zipfCumulative precomputes the normalized CDF of P[R=r] ∝ r^-alpha over
// r ∈ {1..n}.
func zipfCumulative(n int, alpha float64) []float64 {
	cum := make([]float64, n)
	sum := 0.0
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -alpha)
		cum[r-1] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	// Guard against floating-point shortfall at the top: U01At can return
	// exactly 1, which must map to the last rank.
	cum[n-1] = 1
	return cum
}
