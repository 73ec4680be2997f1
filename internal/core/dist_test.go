package core

import (
	"math"
	"sync"
	"testing"

	"reservoir/internal/coll"
	"reservoir/internal/simnet"
	"reservoir/internal/stats"
	"reservoir/internal/workload"
)

// sliceSource serves pre-materialized batches: batches[round][pe].
type sliceSource struct {
	batches [][]workload.SliceBatch
}

func (s sliceSource) NextBatch(pe, round int) workload.Batch {
	return s.batches[round][pe]
}

// splitItems deals items round-robin into rounds × p batches.
func splitItems(items workload.SliceBatch, p, rounds int) sliceSource {
	src := sliceSource{batches: make([][]workload.SliceBatch, rounds)}
	for r := range src.batches {
		src.batches[r] = make([]workload.SliceBatch, p)
	}
	for i, it := range items {
		r := (i / p) % rounds
		pe := i % p
		src.batches[r][pe] = append(src.batches[r][pe], it)
	}
	return src
}

// testCluster wires up p samplers of the given kind over a fresh simulated
// cluster.
type testCluster struct {
	cl       *simnet.Cluster
	samplers []Sampler
}

func newTestCluster(t *testing.T, p int, cfg Config, gather bool) *testCluster {
	t.Helper()
	cl := simnet.NewCluster(p, simnet.CostParams{AlphaNS: cfg.Model.AlphaNS, BetaNS: cfg.Model.BetaNS})
	tc := &testCluster{cl: cl, samplers: make([]Sampler, p)}
	for i := 0; i < p; i++ {
		comm := coll.New(cl.PE(i))
		var err error
		if gather {
			tc.samplers[i], err = NewGatherPE(comm, cfg)
		} else {
			tc.samplers[i], err = NewDistPE(comm, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// processRound runs one SPMD mini-batch round.
func (tc *testCluster) processRound(src workload.Source, round int) {
	tc.cl.Parallel(func(pe *simnet.PE) {
		tc.samplers[pe.ID()].ProcessBatch(src.NextBatch(pe.ID(), round))
	})
}

// collect gathers the global sample (from PE 0's perspective).
func (tc *testCluster) collect() []workload.Item {
	var out []workload.Item
	var mu sync.Mutex
	tc.cl.Parallel(func(pe *simnet.PE) {
		s := tc.samplers[pe.ID()].CollectSample()
		if pe.ID() == 0 {
			mu.Lock()
			out = s
			mu.Unlock()
		}
	})
	return out
}

func runDistributed(t *testing.T, p, rounds int, cfg Config, gather bool, src workload.Source) ([]workload.Item, *testCluster) {
	t.Helper()
	tc := newTestCluster(t, p, cfg, gather)
	for r := 0; r < rounds; r++ {
		tc.processRound(src, r)
	}
	return tc.collect(), tc
}

func TestDistInvariantsFixedK(t *testing.T) {
	const p, rounds, k = 8, 5, 100
	cfg := Config{K: k, Weighted: true, Strategy: SelMultiPivot, Pivots: 8, Seed: 42}
	tc := newTestCluster(t, p, cfg, false)
	src := workload.UniformSource{Seed: 7, BatchLen: 2000, Lo: 0, Hi: 100}
	prevThresh := math.Inf(1)
	for r := 0; r < rounds; r++ {
		tc.processRound(src, r)
		// All PEs must agree on size and threshold.
		size0 := tc.samplers[0].SampleSize()
		th0, have0 := tc.samplers[0].Threshold()
		localSum := 0
		for i, s := range tc.samplers {
			if s.SampleSize() != size0 {
				t.Fatalf("round %d: PE %d size %d != %d", r, i, s.SampleSize(), size0)
			}
			th, have := s.Threshold()
			if th != th0 || have != have0 {
				t.Fatalf("round %d: PE %d threshold disagrees", r, i)
			}
			localSum += s.(*DistPE).LocalSize()
		}
		if size0 != k {
			t.Fatalf("round %d: global sample size %d, want %d", r, size0, k)
		}
		if localSum != k {
			t.Fatalf("round %d: local sizes sum to %d, want %d", r, localSum, k)
		}
		if !have0 {
			t.Fatalf("round %d: no threshold established", r)
		}
		if th0 > prevThresh {
			t.Fatalf("round %d: threshold increased: %v > %v", r, th0, prevThresh)
		}
		prevThresh = th0
		// Local reservoir keys must all be at or below the threshold.
		for i, s := range tc.samplers {
			d := s.(*DistPE)
			if mk, _, ok := d.res.Max(); ok && mk.V > th0 {
				t.Fatalf("round %d: PE %d holds key %v above threshold %v", r, i, mk.V, th0)
			}
		}
	}
	sample := tc.collect()
	if len(sample) != k {
		t.Fatalf("collected sample has %d items, want %d", len(sample), k)
	}
	seen := map[uint64]bool{}
	for _, it := range sample {
		if seen[it.ID] {
			t.Fatalf("duplicate item %d in sample (not without replacement)", it.ID)
		}
		seen[it.ID] = true
	}
	// No messages may leak.
	if n := tc.cl.PendingMessages(); n != 0 {
		t.Errorf("%d messages leaked", n)
	}
	// The distributed algorithm never gathers candidate items.
	if g := tc.samplers[0].Timing().GatherNS; g != 0 {
		t.Errorf("distributed sampler reported gather time %v", g)
	}
}

func TestDistSmallStreamKeepsEverything(t *testing.T) {
	// Fewer than k items in total: the sample must be every item.
	const p, k = 4, 50
	cfg := Config{K: k, Weighted: true, Seed: 1}
	items := makeItems(30, func(i int) float64 { return 1 + float64(i) })
	src := splitItems(items, p, 2)
	sample, tc := runDistributed(t, p, 2, cfg, false, src)
	if len(sample) != 30 {
		t.Fatalf("sample has %d items, want all 30", len(sample))
	}
	if _, have := tc.samplers[0].Threshold(); have {
		t.Error("threshold established before k items seen")
	}
}

func TestDistExactlyKItems(t *testing.T) {
	const p, k = 4, 32
	cfg := Config{K: k, Weighted: true, Seed: 3}
	items := makeItems(k, func(i int) float64 { return 1 })
	src := splitItems(items, p, 1)
	sample, tc := runDistributed(t, p, 1, cfg, false, src)
	if len(sample) != k {
		t.Fatalf("sample has %d items, want %d", len(sample), k)
	}
	if _, have := tc.samplers[0].Threshold(); !have {
		t.Error("threshold missing after exactly k items")
	}
}

// Once a threshold exists, a round that inserts nothing leaves the union
// at exactly k keys whose maximum is the threshold already held, so it
// must cost only the size all-reduction: no threshold-max reduction, and
// the threshold stays put. Covered for both ways the threshold arises —
// the s == k reduction and a selection.
func TestDistNoInsertRoundCostsOneAllReduce(t *testing.T) {
	const p, k = 4, 32
	const oneAllReduce = p * 2 // butterfly: log2(p) exchanges per PE
	for _, n := range []int{k, 4 * k} {
		cfg := Config{K: k, Weighted: true, Seed: 3}
		items := makeItems(n, func(i int) float64 { return float64(i%7 + 1) })
		tc := newTestCluster(t, p, cfg, false)
		tc.processRound(splitItems(items, p, 1), 0)
		before, have := tc.samplers[0].Threshold()
		if !have {
			t.Fatalf("n=%d: no threshold after %d items", n, n)
		}
		empty := sliceSource{batches: [][]workload.SliceBatch{make([]workload.SliceBatch, p)}}
		for r := 0; r < 3; r++ {
			msgs := tc.cl.Stats().Messages
			tc.processRound(empty, 0)
			if got := tc.cl.Stats().Messages - msgs; got != oneAllReduce {
				t.Errorf("n=%d: empty round %d cost %d messages, want %d", n, r, got, oneAllReduce)
			}
			for i, s := range tc.samplers {
				if th, _ := s.Threshold(); th != before || s.SampleSize() != k {
					t.Fatalf("n=%d: PE %d threshold %v size %d after an empty round, want %v and %d",
						n, i, th, s.SampleSize(), before, k)
				}
			}
		}
	}
}

// distInclusionCounts runs the full distributed pipeline many times and
// counts item inclusions.
func distInclusionCounts(t *testing.T, n, k, p, rounds, trials int, weights func(i int) float64,
	mk func(trial int) Config, gather bool) []float64 {
	t.Helper()
	counts := make([]float64, n)
	items := makeItems(n, weights)
	src := splitItems(items, p, rounds)
	for tr := 0; tr < trials; tr++ {
		cfg := mk(tr)
		sample, _ := runDistributed(t, p, rounds, cfg, gather, src)
		if len(sample) != k {
			t.Fatalf("trial %d: sample size %d, want %d", tr, len(sample), k)
		}
		for _, it := range sample {
			counts[it.ID]++
		}
	}
	return counts
}

func TestDistWeightedMatchesOracle(t *testing.T) {
	const n, k, p, rounds, trials = 48, 12, 4, 2, 1200
	weights := func(i int) float64 { return float64(i%5) + 0.5 }
	dist := distInclusionCounts(t, n, k, p, rounds, trials, weights, func(tr int) Config {
		return Config{K: k, Weighted: true, Seed: uint64(tr)*131 + 1}
	}, false)
	oracle := inclusionCounts(n, trials, func(tr int) []workload.Item {
		s := NewNaiveOracle(k, true, rng2(uint64(tr)*977+5))
		s.ProcessBatch(makeItems(n, weights))
		return s.Sample()
	})
	twoSampleChi(t, "distributed-vs-oracle", dist, oracle)
}

func TestDistUniformMatchesExactProbability(t *testing.T) {
	const n, k, p, rounds, trials = 60, 12, 4, 2, 1200
	counts := distInclusionCounts(t, n, k, p, rounds, trials, func(i int) float64 { return 1 }, func(tr int) Config {
		return Config{K: k, Weighted: false, Seed: uint64(tr)*29 + 3}
	}, false)
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = float64(trials) * float64(k) / float64(n)
	}
	_, pval, err := stats.ChiSquare(counts, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pval < 1e-4 {
		t.Errorf("distributed uniform sampler deviates from k/n: p = %g", pval)
	}
}

func TestDistOptimizationsPreserveDistribution(t *testing.T) {
	// First-batch local thresholding must not change the sampling
	// distribution.
	const n, k, p, rounds, trials = 48, 12, 4, 2, 1200
	weights := func(i int) float64 { return float64(i%7) + 0.25 }
	plain := distInclusionCounts(t, n, k, p, rounds, trials, weights, func(tr int) Config {
		return Config{K: k, Weighted: true, Seed: uint64(tr)*17 + 11}
	}, false)
	optimized := distInclusionCounts(t, n, k, p, rounds, trials, weights, func(tr int) Config {
		return Config{K: k, Weighted: true, Seed: uint64(tr)*23 + 19, LocalThreshold: true}
	}, false)
	twoSampleChi(t, "plain-vs-optimized", plain, optimized)
}

func TestGatherMatchesOracle(t *testing.T) {
	const n, k, p, rounds, trials = 48, 12, 4, 2, 1200
	weights := func(i int) float64 { return float64(i%5) + 0.5 }
	gather := distInclusionCounts(t, n, k, p, rounds, trials, weights, func(tr int) Config {
		return Config{K: k, Weighted: true, Seed: uint64(tr)*41 + 7}
	}, true)
	oracle := inclusionCounts(n, trials, func(tr int) []workload.Item {
		s := NewNaiveOracle(k, true, rng2(uint64(tr)*53+29))
		s.ProcessBatch(makeItems(n, weights))
		return s.Sample()
	})
	twoSampleChi(t, "gather-vs-oracle", gather, oracle)
}

func TestGatherInvariants(t *testing.T) {
	const p, rounds, k = 6, 4, 64
	cfg := Config{K: k, Weighted: true, Seed: 5}
	tc := newTestCluster(t, p, cfg, true)
	src := workload.UniformSource{Seed: 11, BatchLen: 500, Lo: 0, Hi: 100}
	for r := 0; r < rounds; r++ {
		tc.processRound(src, r)
		if got := tc.samplers[0].SampleSize(); got != k {
			t.Fatalf("round %d: size %d, want %d", r, got, k)
		}
	}
	sample := tc.collect()
	if len(sample) != k {
		t.Fatalf("gather sample size %d", len(sample))
	}
	// The gather baseline must report gather time and candidate traffic.
	tm := tc.samplers[1].Timing()
	if tm.GatherNS <= 0 {
		t.Error("gather baseline reported no gather time")
	}
	if tc.samplers[1].Counters().CandidateWords == 0 {
		t.Error("gather baseline reported no candidate words")
	}
}

func TestDistVariableSizeMode(t *testing.T) {
	const p, rounds = 4, 8
	cfg := Config{KMin: 80, KMax: 160, Weighted: true, Seed: 9}
	tc := newTestCluster(t, p, cfg, false)
	src := workload.UniformSource{Seed: 13, BatchLen: 400, Lo: 0, Hi: 100}
	for r := 0; r < rounds; r++ {
		tc.processRound(src, r)
		size := tc.samplers[0].SampleSize()
		if size > cfg.KMax {
			t.Fatalf("round %d: size %d exceeds KMax %d", r, size, cfg.KMax)
		}
		if r > 0 && size < cfg.KMin {
			t.Fatalf("round %d: size %d below KMin %d", r, size, cfg.KMin)
		}
	}
	// Variable mode must run fewer selections than rounds (it lets the
	// sample grow between selections).
	sel := tc.samplers[0].Counters().Selections
	if sel >= rounds {
		t.Errorf("variable mode ran %d selections in %d rounds; expected fewer", sel, rounds)
	}
	sample := tc.collect()
	if len(sample) != tc.samplers[0].SampleSize() {
		t.Fatalf("collected %d items, size says %d", len(sample), tc.samplers[0].SampleSize())
	}
}

func TestDistStrategiesAgreeOnInvariants(t *testing.T) {
	for _, strat := range []SelStrategy{SelSinglePivot, SelMultiPivot, SelRandomDist} {
		cfg := Config{K: 50, Weighted: true, Strategy: strat, Seed: 21}
		src := workload.UniformSource{Seed: 31, BatchLen: 800, Lo: 0, Hi: 100}
		sample, tc := runDistributed(t, 4, 3, cfg, false, src)
		if len(sample) != 50 {
			t.Errorf("%v: sample size %d", strat, len(sample))
		}
		if n := tc.cl.PendingMessages(); n != 0 {
			t.Errorf("%v: %d messages leaked", strat, n)
		}
	}
}

func TestDistDeterministicForSeed(t *testing.T) {
	cfg := Config{K: 40, Weighted: true, Strategy: SelMultiPivot, Pivots: 4, Seed: 77}
	src := workload.UniformSource{Seed: 3, BatchLen: 300, Lo: 0, Hi: 100}
	a, _ := runDistributed(t, 4, 3, cfg, false, src)
	b, _ := runDistributed(t, 4, 3, cfg, false, src)
	ids := func(items []workload.Item) map[uint64]bool {
		m := map[uint64]bool{}
		for _, it := range items {
			m[it.ID] = true
		}
		return m
	}
	ma, mb := ids(a), ids(b)
	if len(ma) != len(mb) {
		t.Fatalf("sample sizes differ: %d vs %d", len(ma), len(mb))
	}
	for id := range ma {
		if !mb[id] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestDistUniformModeInvariants(t *testing.T) {
	cfg := Config{K: 64, Weighted: false, Seed: 15}
	src := workload.UniformSource{Seed: 17, BatchLen: 1500, Lo: 0, Hi: 100}
	sample, tc := runDistributed(t, 4, 4, cfg, false, src)
	if len(sample) != 64 {
		t.Fatalf("uniform sample size %d", len(sample))
	}
	th, have := tc.samplers[0].Threshold()
	if !have || th <= 0 || th >= 1 {
		t.Fatalf("uniform threshold %v out of (0,1)", th)
	}
}

func TestTimingAndCounters(t *testing.T) {
	cfg := Config{K: 50, Weighted: true, Seed: 25}
	src := workload.UniformSource{Seed: 19, BatchLen: 1000, Lo: 0, Hi: 100}
	_, tc := runDistributed(t, 4, 3, cfg, false, src)
	tm := tc.samplers[2].Timing()
	if tm.ScanNS <= 0 || tm.SelectNS <= 0 || tm.ThresholdNS <= 0 {
		t.Errorf("missing phase times: %+v", tm)
	}
	c := tc.samplers[2].Counters()
	if c.ItemsProcessed != 3000 {
		t.Errorf("items processed = %d, want 3000", c.ItemsProcessed)
	}
	if c.Inserted <= 0 || c.Selections <= 0 {
		t.Errorf("counters not populated: %+v", c)
	}
	// Timing helpers.
	var sum Timing
	sum.Add(tm)
	sum.Add(tm)
	if math.Abs(sum.TotalNS()-2*tm.TotalNS()) > 1e-6 {
		t.Error("Timing.Add/TotalNS inconsistent")
	}
	mx := tm.Max(Timing{ScanNS: 1e18})
	if mx.ScanNS != 1e18 || mx.SelectNS != tm.SelectNS {
		t.Error("Timing.Max wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{K: 0}).validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := (Config{KMin: 10, KMax: 5}).validate(); err == nil {
		t.Error("KMin > KMax accepted")
	}
	if _, err := (Config{KMin: 0, KMax: 5}).validate(); err == nil {
		t.Error("KMin=0 accepted")
	}
	c, err := Config{K: 5, Strategy: SelMultiPivot}.validate()
	if err != nil || c.Pivots != 8 {
		t.Errorf("multi-pivot default pivots = %d, err %v", c.Pivots, err)
	}
	c, err = Config{K: 5, Strategy: SelSinglePivot, Pivots: 9}.validate()
	if err != nil || c.Pivots != 1 {
		t.Errorf("single-pivot pivots = %d", c.Pivots)
	}
	if c, err := (Config{K: 5}).validate(); err != nil || c.Shards != 1 {
		t.Errorf("unset Shards normalized to %d, err %v; want 1", c.Shards, err)
	}
	if _, err := (Config{K: 5, Shards: -1}).validate(); err == nil {
		t.Error("Shards=-1 accepted")
	}
	if SelSinglePivot.String() != "single-pivot" || SelMultiPivot.String() != "multi-pivot" ||
		SelRandomDist.String() != "random-dist" || SelStrategy(9).String() == "" {
		t.Error("SelStrategy.String broken")
	}
}

// rng2 is a tiny helper to construct a fresh xoshiro source in tests.
func rng2(seed uint64) *xrng { return &xrng{s: seed} }

// xrng is a minimal splitmix-based source to decouple oracle RNG streams
// from the library's engines in two-sample tests.
type xrng struct{ s uint64 }

func (x *xrng) Uint64() uint64 {
	x.s += 0x9e3779b97f4a7c15
	z := x.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
