// Package accept is the statistical acceptance harness: it runs each
// (algorithm × scenario) cell over many seeded trials, accumulates
// per-item inclusion counts, and tests the realized samples against
// theory — the machinery that turns "the tests pass" into "the samples
// are statistically correct on adversarial inputs".
//
// Per cell it applies four checks (see DESIGN.md §7 for the methodology):
//
//  1. inclusion_strata — two-sample chi-square of the fast sampler's
//     per-item inclusion counts against the naive key-sorting oracle run
//     on the identical stream, over weight-ordered strata merged so every
//     bin satisfies the expected-count validity rule.
//  2. closed_form_k1 — chi-square of k=1 inclusion counts against the
//     exact Efraimidis–Spirakis probability w_i/W (for k=1 the weighted
//     reservoir is an exponential race, so the inclusion probability has
//     a closed form — no oracle in the loop).
//  3. weight_total_ks — two-sample Kolmogorov–Smirnov between the
//     per-trial total sample weights of the sampler and the oracle: a
//     whole-distribution check that catches variance and tail bias that
//     mean-based tests miss.
//  4. weight_total_moments — Welford-accumulated mean/variance of the
//     per-trial total sample weight, compared by a Welch z-test.
//
// All p-values are compared against a Bonferroni-corrected per-test level
// alpha/(#cells · #checks), so the whole suite has family-wise false
// rejection probability at most alpha.
package accept

import (
	"fmt"
	"math"
	"sort"

	"reservoir"
	"reservoir/internal/core"
	"reservoir/internal/rng"
	"reservoir/internal/stats"
	"reservoir/internal/workload"
	"reservoir/internal/workload/scenario"
)

// checksPerCell is the number of hypothesis tests each cell runs.
const checksPerCell = 4

// Sampler is the minimal surface the harness needs from a sequential
// sampler under test. The real samplers satisfy it; so does the seeded
// bias mutant (NewMutantWeighted) used to prove the suite has power.
type Sampler interface {
	Process(workload.Item)
	Sample() []workload.Item
}

// Config parameterizes one harness run.
type Config struct {
	// Algorithms to test: "sequential", "distributed", "pipelined"
	// (the distributed sampler with Pipeline on), "random-dist" (the
	// distributed sampler selecting with SelRandomDist), "gather".
	Algorithms []string
	// Scenarios to run each algorithm over.
	Scenarios []scenario.Spec
	// Trials per cell (each trial re-runs the sampler with a fresh seed
	// over the identical stream). Default 400.
	Trials int
	// P is the PE count for the stream and the cluster algorithms
	// (default 4); K the sample size (default 16); Rounds the stream
	// length in mini-batch rounds (default 8); BatchLen the mean items
	// per PE per round (default 64).
	P, K, Rounds, BatchLen int
	// Shards fixes the cluster algorithms' logical scan-shard count
	// (0 means 1). Each shard redraws its admission variates from its
	// own substream, so re-validating the scenario grid at Shards > 1
	// checks the sharded stream's distributional correctness end to end
	// (DESIGN.md §2.6).
	Shards int
	// Seed drives everything: streams, sampler seeds, oracle seeds.
	Seed uint64
	// Alpha is the family-wise significance level (default 1e-3).
	Alpha float64
	// Sequential optionally replaces the sequential sampler under test —
	// the injection point for deliberately broken mutants. nil means the
	// library's SeqWeighted. Only consulted for the "sequential"
	// algorithm.
	Sequential func(k int, seed uint64) Sampler
}

func (c Config) withDefaults() Config {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"sequential", "distributed", "gather"}
	}
	if c.Trials == 0 {
		c.Trials = 400
	}
	if c.P == 0 {
		c.P = 4
	}
	if c.K == 0 {
		c.K = 16
	}
	if c.Rounds == 0 {
		c.Rounds = 8
	}
	if c.BatchLen == 0 {
		c.BatchLen = 64
	}
	if c.Alpha == 0 {
		c.Alpha = 1e-3
	}
	return c
}

// stream is one realized scenario stream, materialized once per cell so
// every trial (and the oracle) replays the identical items.
type stream struct {
	batches [][]workload.SliceBatch // [round][pe]
	union   []workload.Item         // round-major, then PE, then item
	index   map[uint64]int          // item ID -> dense index into union
	totalW  float64
}

// materialize synthesizes the full stream of one scenario.
func materialize(spec scenario.Spec, seed uint64, p, rounds, batchLen int) (*stream, error) {
	src, err := spec.Source(seed, batchLen)
	if err != nil {
		return nil, err
	}
	st := &stream{index: make(map[uint64]int)}
	for r := 0; r < rounds; r++ {
		perPE := make([]workload.SliceBatch, p)
		for pe := 0; pe < p; pe++ {
			b := workload.Materialize(src.NextBatch(pe, r))
			perPE[pe] = b
			for _, it := range b {
				st.index[it.ID] = len(st.union)
				st.union = append(st.union, it)
				st.totalW += it.W
			}
		}
		st.batches = append(st.batches, perPE)
	}
	if len(st.union) == 0 {
		return nil, fmt.Errorf("accept: scenario %q produced an empty stream", spec.Name)
	}
	return st, nil
}

// replaySource adapts the materialized stream back into a workload.Source
// for the cluster algorithms.
type replaySource struct{ st *stream }

func (r replaySource) NextBatch(pe, round int) workload.Batch {
	return r.st.batches[round][pe]
}

// runTrial runs one algorithm once over the stream and returns its sample.
func runTrial(algo string, cfg Config, st *stream, k int, seed uint64) ([]workload.Item, error) {
	switch algo {
	case "sequential":
		var s Sampler
		if cfg.Sequential != nil {
			s = cfg.Sequential(k, seed)
		} else {
			s = core.NewSeqWeighted(k, rng.NewXoshiro256(seed))
		}
		for _, it := range st.union {
			s.Process(it)
		}
		return s.Sample(), nil
	case "distributed", "pipelined", "random-dist", "gather":
		a := reservoir.Distributed
		if algo == "gather" {
			a = reservoir.CentralizedGather
		}
		c := reservoir.Config{K: k, Weighted: true, Seed: seed, Shards: cfg.Shards, Pipeline: algo == "pipelined"}
		if algo == "random-dist" {
			c.Strategy = reservoir.SelRandomDist
		}
		cl, err := reservoir.NewCluster(cfg.P, c, reservoir.WithAlgorithm(a))
		if err != nil {
			return nil, err
		}
		src := replaySource{st}
		for r := 0; r < len(st.batches); r++ {
			cl.ProcessRound(src)
		}
		return cl.Sample(), nil
	default:
		return nil, fmt.Errorf("accept: unknown algorithm %q (want sequential, distributed, pipelined, random-dist, or gather)", algo)
	}
}

// Run executes the full (algorithm × scenario) grid and returns the
// verdict report. The run is deterministic given cfg.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Scenarios) == 0 {
		cfg.Scenarios = scenario.Presets()
	}
	cells := len(cfg.Algorithms) * len(cfg.Scenarios)
	perTest := cfg.Alpha / float64(cells*checksPerCell)
	rep := &Report{
		Schema:       ReportVersion,
		Alpha:        cfg.Alpha,
		PerTestAlpha: perTest,
		Tests:        cells * checksPerCell,
		Params: Params{
			Trials: cfg.Trials, P: cfg.P, K: cfg.K, Rounds: cfg.Rounds,
			BatchLen: cfg.BatchLen, Shards: cfg.Shards, Seed: cfg.Seed,
		},
		Pass: true,
	}
	for si, spec := range cfg.Scenarios {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("scenario_%d", si)
		}
		// One realized stream per scenario, shared by every algorithm's
		// cell (and by the oracle), so cells are comparable and any
		// rejection is attributable to the sampler, not the stream.
		streamSeed := rng.Mix64(cfg.Seed^0x5ce4a7105) + uint64(si)*0x9e3779b97f4a7c15
		st, err := materialize(spec, streamSeed, cfg.P, cfg.Rounds, cfg.BatchLen)
		if err != nil {
			return nil, err
		}
		for ai, algo := range cfg.Algorithms {
			cellSeed := rng.Mix64(cfg.Seed + uint64(si)*1_000_003 + uint64(ai)*7919)
			cell, err := runCell(cfg, algo, spec.Name, st, cellSeed, perTest)
			if err != nil {
				return nil, err
			}
			rep.Cells = append(rep.Cells, *cell)
			if !cell.Pass {
				rep.Pass = false
			}
		}
	}
	return rep, nil
}

// runCell runs all trials and checks of one (algorithm, scenario) cell.
func runCell(cfg Config, algo, scenarioName string, st *stream, cellSeed uint64, perTest float64) (*CellResult, error) {
	n := len(st.union)
	countsAlg := make([]float64, n)
	countsOr := make([]float64, n)
	countsK1 := make([]float64, n)
	wTotAlg := make([]float64, 0, cfg.Trials)
	wTotOr := make([]float64, 0, cfg.Trials)
	var momAlg, momOr stats.Welford

	oracleSeed := func(t int) uint64 { return rng.Mix64(cellSeed ^ 0xfeedface ^ uint64(t)*0x2545f4914f6cdd1d) }
	trialSeed := func(t int) uint64 { return rng.Mix64(cellSeed + uint64(t)*0x9e3779b97f4a7c15) }
	k1Seed := func(t int) uint64 { return rng.Mix64((cellSeed ^ 0xa11ce) + uint64(t)*0xd1342543de82ef95) }

	for t := 0; t < cfg.Trials; t++ {
		sample, err := runTrial(algo, cfg, st, cfg.K, trialSeed(t))
		if err != nil {
			return nil, err
		}
		w := 0.0
		for _, it := range sample {
			countsAlg[st.index[it.ID]]++
			w += it.W
		}
		wTotAlg = append(wTotAlg, w)
		momAlg.Add(w)

		o := core.NewNaiveOracle(cfg.K, true, rng.NewXoshiro256(oracleSeed(t)))
		for _, it := range st.union {
			o.Process(it)
		}
		w = 0
		for _, it := range o.Sample() {
			countsOr[st.index[it.ID]]++
			w += it.W
		}
		wTotOr = append(wTotOr, w)
		momOr.Add(w)

		// Closed-form sub-trial: the same algorithm at k=1, where the
		// exact inclusion probability is w_i/W.
		s1, err := runTrial(algo, cfg, st, 1, k1Seed(t))
		if err != nil {
			return nil, err
		}
		for _, it := range s1 {
			countsK1[st.index[it.ID]]++
		}
	}

	cell := &CellResult{
		Algorithm: algo,
		Scenario:  scenarioName,
		Items:     n,
		TotalW:    st.totalW,
		Pass:      true,
	}
	add := func(name string, statistic, p float64, detail string) {
		ck := Check{Name: name, Statistic: statistic, P: p, Alpha: perTest, Pass: p >= perTest, Detail: detail}
		cell.Checks = append(cell.Checks, ck)
		if !ck.Pass {
			cell.Pass = false
		}
	}

	// 1. inclusion_strata: two-sample chi-square over weight-ordered,
	// validity-merged strata.
	stat, p, bins, err := strataChiSquare(st, countsAlg, countsOr)
	if err != nil {
		return nil, fmt.Errorf("accept: %s/%s inclusion_strata: %w", algo, scenarioName, err)
	}
	add("inclusion_strata", stat, p, fmt.Sprintf("%d merged weight strata vs oracle", bins))

	// 2. closed_form_k1: chi-square against the exact w_i/W inclusion law.
	expected := make([]float64, n)
	for i, it := range st.union {
		expected[i] = float64(cfg.Trials) * it.W / st.totalW
	}
	ordered := weightOrder(st)
	stat, p, err = orderedChiSquareMerged(countsK1, expected, ordered)
	if err != nil {
		return nil, fmt.Errorf("accept: %s/%s closed_form_k1: %w", algo, scenarioName, err)
	}
	add("closed_form_k1", stat, p, "k=1 inclusion vs exact w_i/W")

	// 3. weight_total_ks: whole-distribution comparison of per-trial
	// sample weight totals.
	d, p := stats.KolmogorovSmirnovTwoSample(wTotAlg, wTotOr)
	add("weight_total_ks", d, p, "two-sample KS of per-trial sample weight totals vs oracle")

	// 4. weight_total_moments: Welch z-test on the means.
	z, p := welchZ(&momAlg, &momOr)
	add("weight_total_moments", z, p,
		fmt.Sprintf("mean %.4g vs oracle %.4g (sd %.3g / %.3g)",
			momAlg.Mean(), momOr.Mean(), momAlg.StdDev(), momOr.StdDev()))

	return cell, nil
}

// weightOrder returns the dense item indices ordered by descending weight
// (ties by ID) so strata concentrate the heavy tail at the front and the
// sparse tail merges cleanly.
func weightOrder(st *stream) []int {
	order := make([]int, len(st.union))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		wa, wb := st.union[order[a]].W, st.union[order[b]].W
		if wa != wb {
			return wa > wb
		}
		return st.union[order[a]].ID < st.union[order[b]].ID
	})
	return order
}

// strataChiSquare compares two inclusion-count vectors over weight-ordered
// strata merged to the expected-count validity rule. Under H0 both vectors
// are draws from the same per-item inclusion law, so the pooled half is
// the expected count and the statistic is sum (a-b)^2/(a+b) with
// bins-1 degrees of freedom (equal trial counts on both sides).
func strataChiSquare(st *stream, a, b []float64) (stat, p float64, bins int, err error) {
	order := weightOrder(st)
	oa := make([]float64, len(order))
	ob := make([]float64, len(order))
	pooledHalf := make([]float64, len(order))
	for j, idx := range order {
		oa[j] = a[idx]
		ob[j] = b[idx]
		pooledHalf[j] = (a[idx] + b[idx]) / 2
	}
	_, cols, err := stats.MergeBins(pooledHalf, stats.MinExpectedCount, oa, ob)
	if err != nil {
		return 0, 0, 0, err
	}
	ma, mb := cols[0], cols[1]
	df := 0
	for j := range ma {
		tot := ma[j] + mb[j]
		if tot == 0 {
			continue
		}
		d := ma[j] - mb[j]
		stat += d * d / tot
		df++
	}
	if df < 2 {
		return stat, 1, len(ma), nil
	}
	return stat, stats.ChiSquareSurvival(stat, float64(df-1)), len(ma), nil
}

// orderedChiSquareMerged runs ChiSquareMerged with bins in the given order
// (weight-descending), so merging groups items of similar weight.
func orderedChiSquareMerged(obs, expected []float64, order []int) (stat, p float64, err error) {
	o := make([]float64, len(order))
	e := make([]float64, len(order))
	for j, idx := range order {
		o[j] = obs[idx]
		e[j] = expected[idx]
	}
	return stats.ChiSquareMerged(o, e, 0, stats.MinExpectedCount)
}

// welchZ compares two Welford accumulators' means with a Welch z-test and
// returns the statistic and two-sided p-value.
func welchZ(a, b *stats.Welford) (z, p float64) {
	se := math.Sqrt(a.Variance()/float64(a.N()) + b.Variance()/float64(b.N()))
	if se == 0 {
		if a.Mean() == b.Mean() {
			return 0, 1
		}
		return math.Inf(1), 0
	}
	z = (a.Mean() - b.Mean()) / se
	return z, 2 * stats.NormalSurvival(math.Abs(z))
}
