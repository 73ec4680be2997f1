package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"testing"

	"reservoir/internal/rng"
	"reservoir/internal/stats"
	"reservoir/internal/workload"
)

// collect materializes every item of rounds×p batches into one slice.
func collect(t *testing.T, src *Source, p, rounds int) []workload.Item {
	t.Helper()
	var out []workload.Item
	for round := 0; round < rounds; round++ {
		for pe := 0; pe < p; pe++ {
			b := src.NextBatch(pe, round)
			for i := 0; i < b.Len(); i++ {
				out = append(out, b.At(i))
			}
		}
	}
	return out
}

func mustSource(t *testing.T, spec Spec, seed uint64, meanLen int) *Source {
	t.Helper()
	src, err := spec.Source(seed, meanLen)
	if err != nil {
		t.Fatalf("Source(%+v): %v", spec, err)
	}
	return src
}

func TestPresetsValid(t *testing.T) {
	ps := Presets()
	if len(ps) == 0 {
		t.Fatal("no presets")
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if p.Name == "" {
			t.Fatalf("preset without a name: %+v", p)
		}
		if seen[p.Name] {
			t.Fatalf("duplicate preset name %q", p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		got, ok := Preset(p.Name)
		if !ok || got.Name != p.Name {
			t.Errorf("Preset(%q) round-trip failed", p.Name)
		}
	}
	names := Names()
	if len(names) != len(ps) {
		t.Fatalf("Names() has %d entries, want %d", len(names), len(ps))
	}
	for i, n := range names {
		if n != ps[i].Name {
			t.Errorf("Names()[%d] = %q, want %q (order must be canonical)", i, n, ps[i].Name)
		}
	}
	if _, ok := Preset("no_such_scenario"); ok {
		t.Error("Preset returned ok for an unknown name")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"unknown law", Spec{Law: "cauchy"}},
		{"uniform inverted range", Spec{Law: "uniform", Lo: 10, Hi: 5}},
		{"uniform negative lo", Spec{Law: "uniform", Lo: -1, Hi: 5}},
		{"zipf negative alpha", Spec{Law: "zipf", Alpha: -1}},
		{"zipf support too small", Spec{Law: "zipf", ZipfN: 1}},
		{"pareto negative alpha", Spec{Law: "pareto", Alpha: -0.5}},
		{"lognormal negative sigma", Spec{Law: "lognormal", Sigma: -1}},
		{"unknown arrival", Spec{Arrival: "fractal"}},
		{"bursty negative shape", Spec{Arrival: "bursty", BurstShape: -1}},
		{"onoff off_level above one", Spec{Arrival: "onoff", OffLevel: 2}},
		{"onoff negative off_rounds", Spec{Arrival: "onoff", OffRounds: -1}},
		{"negative rate skew", Spec{RateSkew: -0.5}},
		{"hot_frac above one", Spec{HotFrac: 1.5, HotBoost: 2}},
		{"hot_frac without boost", Spec{HotFrac: 0.1, HotBoost: -1}},
		{"unknown drift", Spec{Drift: "brownian"}},
		{"ramp negative rate", Spec{Drift: "ramp", DriftRate: -1}},
		{"cycle rate too large", Spec{Drift: "cycle", DriftRate: 1.5}},
		// Specs whose smallest weight underflows to 0.
		{"lognormal mu underflows", Spec{Law: "lognormal", Mu: -800}},
		{"lognormal just past the bound", Spec{Law: "lognormal", Mu: -737}},
		{"lognormal wide sigma underflows", Spec{Law: "lognormal", Sigma: 90}},
		{"uniform tiny hi", Spec{Law: "uniform", Hi: 1e-310}},
		{"tiny hot_boost", Spec{HotFrac: 0.1, HotBoost: 1e-320}},
		{"tiny hi times tiny hot_boost", Spec{Hi: 1e-200, HotFrac: 0.5, HotBoost: 1e-110}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.spec)
			}
			if _, err := tc.spec.Source(1, 64); err == nil {
				t.Fatalf("Source accepted %+v", tc.spec)
			}
		})
	}
	if _, err := (Spec{}).Source(1, 0); err == nil {
		t.Fatal("Source accepted meanLen 0")
	}
	if _, err := (Spec{}).Source(1, maxBatchLen+1); err == nil {
		t.Fatal("Source accepted meanLen above the cap")
	}
}

// TestDeterministicResynthesis is the contract node mode, the chaos
// resync re-execution and verify -match all rely on: two independently compiled sources with
// the same (spec, seed) must emit bit-identical streams, and re-requesting
// a batch must reproduce it.
// Specs just inside the zero-weight bound stay valid: the bound rejects
// only what can underflow.
func TestValidateAcceptsSmallPositiveWeights(t *testing.T) {
	for _, spec := range []Spec{
		{Law: "lognormal", Mu: -736},
		{Law: "uniform", Hi: 1e-300},
		{Hi: 1e-200, HotFrac: 0.5, HotBoost: 1e-100},
		{Drift: "cycle", DriftRate: -0.999},
	} {
		if err := spec.Validate(); err != nil {
			t.Errorf("Validate(%+v): %v", spec, err)
		}
	}
}

func TestDeterministicResynthesis(t *testing.T) {
	for _, spec := range Presets() {
		t.Run(spec.Name, func(t *testing.T) {
			a := mustSource(t, spec, 0xDE7E12, 96)
			b := mustSource(t, spec, 0xDE7E12, 96)
			for round := 0; round < 6; round++ {
				for pe := 0; pe < 3; pe++ {
					ba, bb := a.NextBatch(pe, round), b.NextBatch(pe, round)
					if ba.Len() != bb.Len() {
						t.Fatalf("(pe=%d round=%d): lengths %d vs %d", pe, round, ba.Len(), bb.Len())
					}
					again := a.NextBatch(pe, round)
					for i := 0; i < ba.Len(); i++ {
						if ba.At(i) != bb.At(i) {
							t.Fatalf("(pe=%d round=%d item=%d): %+v vs %+v", pe, round, i, ba.At(i), bb.At(i))
						}
						if ba.At(i) != again.At(i) {
							t.Fatalf("(pe=%d round=%d item=%d): re-request diverged", pe, round, i)
						}
					}
				}
			}
		})
	}
}

func TestSeedAndStreamSeparation(t *testing.T) {
	spec := Spec{Law: "uniform"}
	a := mustSource(t, spec, 1, 64)
	b := mustSource(t, spec, 2, 64)
	if a.NextBatch(0, 0).At(0).W == b.NextBatch(0, 0).At(0).W {
		t.Error("different seeds produced the same first weight")
	}
	// Distinct (pe, round) cells must draw from distinct substreams.
	if a.NextBatch(0, 0).At(0).W == a.NextBatch(1, 0).At(0).W {
		t.Error("pe 0 and pe 1 share a weight stream")
	}
	if a.NextBatch(0, 0).At(0).W == a.NextBatch(0, 1).At(0).W {
		t.Error("round 0 and round 1 share a weight stream")
	}
}

func TestItemIDsGloballyUnique(t *testing.T) {
	src := mustSource(t, Spec{Law: "pareto", Arrival: "bursty"}, 7, 64)
	seen := map[uint64]bool{}
	for _, it := range collect(t, src, 4, 8) {
		if seen[it.ID] {
			t.Fatalf("duplicate item ID %d across batches", it.ID)
		}
		seen[it.ID] = true
	}
}

// relErr fails the test when |got-want|/want exceeds tol.
func relErr(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s: got %g, want %g (±%.0f%%)", what, got, want, tol*100)
	}
}

// TestLawMoments checks the empirical first moment of every weight law
// against closed-form theory. Seeds are fixed, so these are deterministic
// regression tests, not flaky statistical ones; tolerances cover the
// finite-sample error at ~50k items.
func TestLawMoments(t *testing.T) {
	const p, rounds, meanLen = 4, 8, 1600 // ~51k items per law
	mean := func(spec Spec, seed uint64) float64 {
		items := collect(t, mustSource(t, spec, seed, meanLen), p, rounds)
		sum := 0.0
		for _, it := range items {
			if !(it.W > 0) {
				t.Fatalf("non-positive weight %g in %+v", it.W, spec)
			}
			sum += it.W
		}
		return sum / float64(len(items))
	}

	// Uniform(lo, hi): mean (lo+hi)/2.
	relErr(t, "uniform mean", mean(Spec{Law: "uniform", Lo: 2, Hi: 10}, 11), 6, 0.01)

	// Zipf over {1..N}: E[R] = H(N, alpha-1)/H(N, alpha) with
	// H(N, s) = sum_{r=1..N} r^-s.
	alpha, n := 1.2, 512
	num, den := 0.0, 0.0
	for r := 1; r <= n; r++ {
		num += math.Pow(float64(r), 1-alpha)
		den += math.Pow(float64(r), -alpha)
	}
	relErr(t, "zipf mean", mean(Spec{Law: "zipf", Alpha: alpha, ZipfN: n}, 13), num/den, 0.05)

	// Pareto(alpha) with scale 1: mean alpha/(alpha-1). Shape 2.5 keeps
	// the variance finite so the empirical mean converges at this n.
	relErr(t, "pareto mean", mean(Spec{Law: "pareto", Alpha: 2.5}, 17), 2.5/1.5, 0.05)

	// Lognormal(mu, sigma): mean exp(mu + sigma^2/2).
	relErr(t, "lognormal mean", mean(Spec{Law: "lognormal", Mu: 0.5, Sigma: 0.75}, 19),
		math.Exp(0.5+0.75*0.75/2), 0.05)
}

func TestHotKeyBoostMoment(t *testing.T) {
	// A HotFrac fraction boosted by HotBoost scales the mean weight by
	// 1 + HotFrac·(HotBoost-1).
	base := Spec{Law: "uniform", Lo: 2, Hi: 10}
	hot := base
	hot.HotFrac, hot.HotBoost = 0.2, 10.0
	items := collect(t, mustSource(t, hot, 23, 1600), 4, 8)
	sum := 0.0
	for _, it := range items {
		sum += it.W
	}
	relErr(t, "hot-key boosted mean", sum/float64(len(items)), 6*(1+0.2*9), 0.05)
}

func TestDriftScalesWeights(t *testing.T) {
	// Ramp drift multiplies round r's weights by (1 + rate·r); with a
	// uniform law the per-round mean must track it.
	spec := Spec{Law: "uniform", Lo: 2, Hi: 10, Drift: "ramp", DriftRate: 0.25}
	src := mustSource(t, spec, 29, 4000)
	for _, round := range []int{0, 4, 12} {
		b := src.NextBatch(0, round)
		sum := 0.0
		for i := 0; i < b.Len(); i++ {
			sum += b.At(i).W
		}
		want := 6 * (1 + 0.25*float64(round))
		relErr(t, "ramp drift mean", sum/float64(b.Len()), want, 0.03)
	}

	// Cycle drift at round = period/2 is back at scale 1 (sin(pi) = 0),
	// and at period/4 it peaks at 1 + rate.
	cyc := Spec{Law: "uniform", Lo: 2, Hi: 10, Drift: "cycle", DriftRate: 0.5, DriftPeriod: 16}
	csrc := mustSource(t, cyc, 31, 4000)
	for _, tc := range []struct {
		round int
		scale float64
	}{{0, 1}, {4, 1.5}, {8, 1}} {
		b := csrc.NextBatch(0, tc.round)
		sum := 0.0
		for i := 0; i < b.Len(); i++ {
			sum += b.At(i).W
		}
		relErr(t, "cycle drift mean", sum/float64(b.Len()), 6*tc.scale, 0.03)
	}
}

func TestConstantArrivalAndRateSkew(t *testing.T) {
	// Constant arrivals with rate skew are exact: round(mean·(pe+1)^-skew).
	src := mustSource(t, Spec{RateSkew: 1.5}, 37, 1000)
	for pe := 0; pe < 6; pe++ {
		want := int(math.Round(1000 * math.Pow(float64(pe+1), -1.5)))
		if got := src.BatchLen(pe, 3); got != want {
			t.Errorf("BatchLen(pe=%d) = %d, want %d", pe, got, want)
		}
	}
}

func TestOnOffArrivalPhases(t *testing.T) {
	spec := Spec{Arrival: "onoff", OnRounds: 3, OffRounds: 2, OffLevel: 0.25}
	src := mustSource(t, spec, 41, 400)
	for round := 0; round < 10; round++ {
		want := 400
		if (round % 5) >= 3 {
			want = 100
		}
		if got := src.BatchLen(0, round); got != want {
			t.Errorf("round %d: BatchLen = %d, want %d", round, got, want)
		}
	}
	// PE 1 is phase-staggered by one round relative to PE 0.
	if src.BatchLen(1, 2) != src.BatchLen(0, 3) {
		t.Error("onoff phases are not staggered by rank")
	}
}

func TestPoissonArrivalMoments(t *testing.T) {
	// Poisson(mean): variance equals the mean. 512 deterministic draws.
	src := mustSource(t, Spec{Arrival: "poisson"}, 43, 64)
	var w stats.Welford
	for round := 0; round < 128; round++ {
		for pe := 0; pe < 4; pe++ {
			w.Add(float64(src.BatchLen(pe, round)))
		}
	}
	relErr(t, "poisson arrival mean", w.Mean(), 64, 0.05)
	relErr(t, "poisson arrival variance", w.Variance(), 64, 0.25)
}

// TestBurstyArrivalKS checks the realized bursty round lengths against the
// Gamma law they are drawn from: len·shape/mean ~ Gamma(shape, 1). The
// base length is large so integer rounding stays far below KS resolution.
func TestBurstyArrivalKS(t *testing.T) {
	const meanLen, shape = 4096.0, 0.5
	src := mustSource(t, Spec{Arrival: "bursty", BurstShape: shape}, 47, int(meanLen))
	var draws []float64
	for round := 0; round < 150; round++ {
		for pe := 0; pe < 4; pe++ {
			draws = append(draws, float64(src.BatchLen(pe, round))*shape/meanLen)
		}
	}
	d, p := stats.KolmogorovSmirnov(draws, func(x float64) float64 {
		return stats.GammaCDF(shape, 1, x)
	})
	if p < 1e-3 {
		t.Fatalf("bursty arrivals reject Gamma(%g): KS d=%g p=%g", shape, d, p)
	}
}

func TestWeibullArrivalKS(t *testing.T) {
	const meanLen, shape = 4096.0, 0.8
	src := mustSource(t, Spec{Arrival: "weibull", BurstShape: shape}, 53, int(meanLen))
	norm := math.Gamma(1 + 1/shape)
	var draws []float64
	for round := 0; round < 150; round++ {
		for pe := 0; pe < 4; pe++ {
			draws = append(draws, float64(src.BatchLen(pe, round))*norm/meanLen)
		}
	}
	d, p := stats.KolmogorovSmirnov(draws, func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return 1 - math.Exp(-math.Pow(x, shape))
	})
	if p < 1e-3 {
		t.Fatalf("weibull arrivals reject Weibull(%g): KS d=%g p=%g", shape, d, p)
	}
}

func TestZipfWeightsMatchLawByChiSquare(t *testing.T) {
	// Beyond the mean: the realized Zipf rank histogram must fit the full
	// r^-alpha pmf (bins merged to the expected-count-5 validity rule).
	alpha, n := 1.2, 64
	spec := Spec{Law: "zipf", Alpha: alpha, ZipfN: n}
	items := collect(t, mustSource(t, spec, 59, 1600), 4, 8)
	obs := make([]float64, n)
	for _, it := range items {
		r := int(it.W) - 1
		if r < 0 || r >= n {
			t.Fatalf("zipf weight %g outside {1..%d}", it.W, n)
		}
		obs[r]++
	}
	norm := 0.0
	for r := 1; r <= n; r++ {
		norm += math.Pow(float64(r), -alpha)
	}
	exp := make([]float64, n)
	for r := 1; r <= n; r++ {
		exp[r-1] = float64(len(items)) * math.Pow(float64(r), -alpha) / norm
	}
	stat, p, err := stats.ChiSquareMerged(obs, exp, 0, stats.MinExpectedCount)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-3 {
		t.Fatalf("zipf histogram rejects the law: chi2=%g p=%g", stat, p)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	for _, spec := range Presets() {
		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var back Spec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != spec {
			t.Fatalf("JSON round-trip changed %s:\n  %+v\n  %+v", spec.Name, spec, back)
		}
	}
}

func TestSourceSpecAppliesDefaults(t *testing.T) {
	src := mustSource(t, Spec{}, 1, 8)
	got := src.Spec()
	if got.Law != "uniform" || got.Arrival != "constant" || got.Hi != 100 {
		t.Fatalf("defaults not applied: %+v", got)
	}
}

// TestScenarioStreamsPinned pins every preset stream, plus a Zipf law whose
// support is not a power of two, to sha256 digests of its (W, ID) pairs over
// rounds 0–2 and PEs 0–3. Node mode, chaos resync and verify -match replay
// these streams byte for byte, so a change to how a law is drawn must leave
// every digest alone.
func TestScenarioStreamsPinned(t *testing.T) {
	want := map[string]string{
		"uniform_poisson": "e2cded836c34bf687383a52b2694618af12a602715b8aae74514410a621a62b5",
		"zipf_hot":        "4811d24b31f8363bba458b6e8dea866d8d32bd50faee1b34c25b5f204646c687",
		"pareto_burst":    "e223415dd7a7a671f822b942902226c6a9f4bde986a9169a2e45a4a2742e2d82",
		"lognormal_drift": "0aeea83077079269b5c25f50c1c139b7a69da3fb3105d4087420a012ed948e55",
		"onoff_skew":      "83eb5964b2a71aa04ea2d35c02a037f18289b28b73398b9cbe09d256a757b19f",
		"zipf_n5000":      "d82572f019541a3df9079a17602ab75eb5ecfcbae326b1a179949be82869f9ca",
	}
	for _, spec := range append(Presets(), Spec{Name: "zipf_n5000", Law: "zipf", ZipfN: 5000, Alpha: 0.6}) {
		src := mustSource(t, spec, 0x5EED, 512)
		h := sha256.New()
		var buf [8]byte
		for round := 0; round < 3; round++ {
			for pe := 0; pe < 4; pe++ {
				b := src.NextBatch(pe, round)
				binary.LittleEndian.PutUint64(buf[:], uint64(b.Len()))
				h.Write(buf[:])
				for i := 0; i < b.Len(); i++ {
					it := b.At(i)
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(it.W))
					h.Write(buf[:])
					binary.LittleEndian.PutUint64(buf[:], it.ID)
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[spec.Name] {
			t.Errorf("%s stream digest %s, pinned %s", spec.Name, got, want[spec.Name])
		}
	}
}

// checkFillMatchesAt fails unless workload.FillWeightsFrom gives b.At's
// weight bit-for-bit at offsets 0 and 7 and at lengths 0, 1, 3, 4, 5 and
// 4097, which run every unroll tail of the bulk kernels.
func checkFillMatchesAt(t *testing.T, label string, b workload.Batch) {
	t.Helper()
	for _, lo := range []int{0, 7} {
		for _, n := range []int{0, 1, 3, 4, 5, 4097} {
			if lo+n > b.Len() {
				t.Fatalf("%s: batch of %d items is shorter than %d+%d", label, b.Len(), lo, n)
			}
			dst := make([]float64, n)
			workload.FillWeightsFrom(b, lo, dst)
			for j, got := range dst {
				if want := b.At(lo + j).W; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: item %d weighs %v via FillWeightsFrom(lo=%d, n=%d), %v via At", label, lo+j, got, lo, n, want)
				}
			}
		}
	}
}

// longBatch returns PE 0's first batch, from round `from` on, that holds
// at least need items; the bursty presets draw short rounds too.
func longBatch(t *testing.T, src *Source, from, need int) workload.Batch {
	t.Helper()
	for round := from; round < from+64; round++ {
		if b := src.NextBatch(0, round); b.Len() >= need {
			return b
		}
	}
	t.Fatalf("no batch of %d items in 64 rounds", need)
	return nil
}

// TestFillWeightsMatchesAtScenario pins the path the scans read —
// workload.FillWeights — to Batch.At, which TestScenarioStreamsPinned
// pins, for every preset and every law × hot-key × drift combination.
func TestFillWeightsMatchesAtScenario(t *testing.T) {
	const need = 4097 + 7
	for _, spec := range Presets() {
		src := mustSource(t, spec, 0xF111, 8192)
		checkFillMatchesAt(t, spec.Name, longBatch(t, src, 3, need))
	}
	for _, law := range []string{"uniform", "zipf", "pareto", "lognormal"} {
		for _, hot := range []float64{0, 0.3, 1} {
			for _, drift := range []string{"none", "ramp", "cycle"} {
				spec := Spec{Law: law, HotFrac: hot, HotBoost: 7, Drift: drift, DriftRate: 0.25, DriftPeriod: 5}
				src := mustSource(t, spec, 0xF112, need)
				label := fmt.Sprintf("%s/hot=%g/%s", law, hot, drift)
				checkFillMatchesAt(t, label, longBatch(t, src, 3, need))
			}
		}
	}
}

// TestHotKeyTestAtItsBoundary sets HotFrac on and next to one item's
// hot-key draw u: the item is boosted exactly when u <= HotFrac, in the
// bulk fill and in At alike, however the kernel phrases the test.
func TestHotKeyTestAtItsBoundary(t *testing.T) {
	const pe, round, i = 1, 2, 37
	plain := mustSource(t, Spec{Law: "uniform"}, 9, 64)
	base := plain.NextBatch(pe, round).At(i).W
	u := rng.Counter{Seed: plain.subSeed(domainHot, pe, round)}.U01At(i)
	for _, c := range []struct {
		frac float64
		hot  bool
	}{
		{u, true},
		{math.Nextafter(u, 2), true},
		{math.Nextafter(u, 0), false},
		{u - 0x1p-53, false},
	} {
		src := mustSource(t, Spec{Law: "uniform", HotFrac: c.frac, HotBoost: 3}, 9, 64)
		want := base
		if c.hot {
			want *= 3
		}
		b := src.NextBatch(pe, round)
		dst := make([]float64, b.Len())
		workload.FillWeights(b, dst)
		if dst[i] != want || b.At(i).W != want {
			t.Errorf("hot_frac %v, draw %v: weight %v (fill) and %v (At), want %v", c.frac, u, dst[i], b.At(i).W, want)
		}
	}
}

// TestNextBatchFillAllocs bounds the allocations of one NextBatch plus
// its weight fill per preset, at the counts the per-item closures made:
// the bulk kernels must not buy speed with garbage.
func TestNextBatchFillAllocs(t *testing.T) {
	limit := map[string]float64{
		"uniform_poisson": 4,
		"zipf_hot":        3,
		"pareto_burst":    4,
		"lognormal_drift": 4,
		"onoff_skew":      3,
	}
	for _, spec := range Presets() {
		src := mustSource(t, spec, 1, 512)
		dst := make([]float64, 1<<16)
		round := 0
		got := testing.AllocsPerRun(50, func() {
			b := src.NextBatch(0, round)
			workload.FillWeights(b, dst[:b.Len()])
			round++
		})
		if got > limit[spec.Name] {
			t.Errorf("%s: NextBatch plus FillWeights makes %v allocations, want at most %v", spec.Name, got, limit[spec.Name])
		}
	}
}

// TestZipfGuideMatchesSearch checks that the guide-table lookup returns the
// binary search's rank at every u where the two could part: each CDF entry,
// each guide boundary j/m, their float neighbours, the ends of [0, 1] and
// the smallest U01At value, plus random draws.
func TestZipfGuideMatchesSearch(t *testing.T) {
	for _, n := range []int{2, 3, 4096, 5000} {
		for _, alpha := range []float64{0.5, 1.1, 3} {
			z := newZipfTable(n, alpha)
			us := []float64{0, 1.0 / (1 << 53), 1}
			near := func(x float64) {
				us = append(us, math.Nextafter(x, 0), x, math.Nextafter(x, 2))
			}
			for _, c := range z.cum {
				near(c)
			}
			for j := 0; j < len(z.guide); j++ {
				near(float64(j) / z.m)
			}
			c := rng.Counter{Seed: uint64(n)}
			for i := uint64(0); i < 100000; i++ {
				us = append(us, c.U01At(i))
			}
			in := us[:0]
			for _, u := range us {
				if u <= 1 {
					in = append(in, u)
				}
			}
			got := append([]float64(nil), in...)
			z.ranks(got)
			for k, u := range in {
				if want := sort.SearchFloat64s(z.cum, u) + 1; got[k] != float64(want) {
					t.Fatalf("n=%d alpha=%g u=%v: guide weight %v, binary search %d", n, alpha, u, got[k], want)
				}
			}
		}
	}
}

// BenchmarkScenarioWeights measures weight synthesis per preset: one
// 5,000-item batch per iteration, filled the way the scans read it.
func BenchmarkScenarioWeights(b *testing.B) {
	const items = 5000
	for _, spec := range Presets() {
		b.Run(spec.Name, func(b *testing.B) {
			src, err := spec.Source(1, items)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, items)
			b.ReportAllocs()
			round := 0
			for b.Loop() {
				workload.FillWeights(src.NextBatch(0, round), dst)
				round++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
		})
	}
}
