// Command reservoir-verify runs the statistical validation suite: it
// checks, with chi-square goodness-of-fit tests, that every sampler in the
// library draws from the correct distribution.
//
//   - uniform samplers (sequential and distributed) against the exact k/n
//     inclusion probability,
//   - weighted samplers (sequential, distributed, gather baseline) against
//     the naive key-sorting oracle via a two-sample test,
//   - the sliding-window sampler against an oracle restricted to the
//     window.
//
// Exit status 0 means every check passed its significance threshold.
//
// With -json, the results are also written as a reservoir-bench/v1 report
// (one Result per check, metrics p_value and failed), so statistical
// drift is diffable across PRs — CI runs a small smoke on every PR and
// the full matrix on a weekly cron (see .github/workflows/ci.yml and
// docs/BENCHMARKS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"reservoir"
	"reservoir/internal/bench"
	"reservoir/internal/stats"
)

func main() {
	trials := flag.Int("trials", 1500, "trials per check")
	n := flag.Int("n", 48, "stream length")
	k := flag.Int("k", 12, "sample size")
	p := flag.Int("p", 4, "PEs for distributed checks")
	alpha := flag.Float64("alpha", 1e-4, "rejection threshold (p-value)")
	seed := flag.Uint64("seed", 7, "base seed")
	jsonOut := flag.String("json", "", "also write a reservoir-bench/v1 report to this path")
	name := flag.String("name", "verify_stats", "report name for -json")
	match := flag.String("match", "", "verify a cluster sample dump (reservoir-loadgen -cluster -sample-out) against a simulator replay instead of running the statistical suite")
	acceptMode := flag.Bool("accept", false, "run the scenario acceptance harness (internal/stats/accept) instead of the classic suite")
	scenarios := flag.String("scenario", "all", "for -accept: comma-separated scenario presets, or \"all\"")
	algos := flag.String("algos", "sequential,distributed,gather", "for -accept: comma-separated algorithms")
	acceptTrials := flag.Int("accept-trials", 400, "for -accept: trials per (algorithm x scenario) cell")
	rounds := flag.Int("rounds", 8, "for -accept: rounds per trial")
	batch := flag.Int("batch", 64, "for -accept: mean items per PE per round")
	shards := flag.Int("shards", 0, "for -accept: logical scan-shard count for the cluster algorithms (0 means 1)")
	acceptAlpha := flag.Float64("accept-alpha", 1e-3, "for -accept: family-wise significance level (Bonferroni-split across checks)")
	acceptOut := flag.String("accept-out", "", "for -accept: write the reservoir-accept/v1 verdict report to this path")
	mutant := flag.Bool("mutant", false, "for -accept: power check — swap in the deliberately biased sampler and require the suite to REJECT it")
	flag.Parse()

	if *match != "" {
		if err := runMatch(*match); err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-verify: match FAILED:", err)
			os.Exit(1)
		}
		return
	}

	if *acceptMode {
		err := runAccept(acceptOpts{
			scenarios: *scenarios,
			algos:     *algos,
			trials:    *acceptTrials,
			p:         *p,
			k:         *k,
			rounds:    *rounds,
			batch:     *batch,
			shards:    *shards,
			seed:      *seed,
			alpha:     *acceptAlpha,
			out:       *acceptOut,
			mutant:    *mutant,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-verify: accept FAILED:", err)
			os.Exit(1)
		}
		return
	}

	rep := bench.NewReport("reservoir-verify", *name)
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Params = map[string]any{
		"trials": *trials, "n": *n, "k": *k, "p": *p, "alpha": *alpha, "seed": *seed,
	}

	failures := 0
	check := func(name string, pval float64) {
		status := "ok"
		failed := 0.0
		if pval < *alpha {
			status = "FAIL"
			failures++
			failed = 1
		}
		rep.Add(name, nil, map[string]float64{"p_value": pval, "failed": failed})
		fmt.Printf("%-28s p=%.4g  %s\n", name, pval, status)
	}
	writeReport := func() {
		if *jsonOut == "" {
			return
		}
		if err := rep.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "writing", *jsonOut, ":", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d results to %s\n", len(rep.Results), *jsonOut)
	}

	weights := func(i int) float64 { return float64(i%5) + 0.5 }
	items := make(reservoir.SliceBatch, *n)
	for i := range items {
		items[i] = reservoir.Item{W: weights(i), ID: uint64(i)}
	}

	// Sequential uniform vs exact k/n.
	counts := make([]float64, *n)
	for tr := 0; tr < *trials; tr++ {
		s := reservoir.NewUniform(*k, *seed+uint64(tr)*13)
		for _, it := range items {
			s.Process(it)
		}
		for _, it := range s.Sample() {
			counts[it.ID]++
		}
	}
	expected := make([]float64, *n)
	for i := range expected {
		expected[i] = float64(*trials) * float64(*k) / float64(*n)
	}
	_, pv, err := stats.ChiSquare(counts, expected, 0)
	must(err)
	check("sequential-uniform", pv)

	// Sequential weighted vs oracle (two-sample).
	fast := runSeq(*trials, *k, items, *seed, false)
	oracle := runSeq(*trials, *k, items, *seed^0xFFFF, true)
	check("sequential-weighted", twoSampleP(fast, oracle))

	// Distributed weighted vs oracle.
	dist := runDist(*trials, *k, *p, items, *seed+1, reservoir.Distributed)
	check("distributed-weighted", twoSampleP(dist, oracle))

	// Gather baseline vs oracle.
	gather := runDist(*trials, *k, *p, items, *seed+2, reservoir.CentralizedGather)
	check("gather-weighted", twoSampleP(gather, oracle))

	// Windowed sampler vs oracle over the window (window = last half).
	win := make([]float64, *n)
	winOracle := make([]float64, *n)
	window := *n / 2
	for tr := 0; tr < *trials; tr++ {
		s := reservoir.NewWindowed(*k/2, window, window/4, *seed+uint64(tr)*29)
		for _, it := range items {
			s.Process(it)
		}
		for _, it := range s.Sample() {
			win[it.ID]++
		}
		o := reservoir.NewWeighted(*k/2, *seed^uint64(tr)*31+5)
		for _, it := range items[*n-window:] {
			o.Process(it)
		}
		for _, it := range o.Sample() {
			winOracle[it.ID]++
		}
	}
	check("windowed-weighted", twoSampleP(win, winOracle))

	writeReport()
	if failures > 0 {
		fmt.Printf("\n%d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("\nall checks passed")
}

func runSeq(trials, k int, items reservoir.SliceBatch, seed uint64, oracle bool) []float64 {
	counts := make([]float64, len(items))
	for tr := 0; tr < trials; tr++ {
		var sample []reservoir.Item
		if oracle {
			// The naive oracle: explicit key per item, keep k smallest.
			// reservoir.NewWeighted with per-item processing IS the fast
			// path; for the oracle we use a large-k trick: sample of size
			// n sorted by key... Instead, reuse the library's windowed
			// sampler with window >= n, which keys every item explicitly.
			s := reservoir.NewWindowed(k, len(items), len(items), seed+uint64(tr)*41)
			for _, it := range items {
				s.Process(it)
			}
			sample = s.Sample()
		} else {
			s := reservoir.NewWeighted(k, seed+uint64(tr)*37)
			for _, it := range items {
				s.Process(it)
			}
			sample = s.Sample()
		}
		for _, it := range sample {
			counts[it.ID]++
		}
	}
	return counts
}

func runDist(trials, k, p int, items reservoir.SliceBatch, seed uint64, algo reservoir.Algorithm) []float64 {
	counts := make([]float64, len(items))
	for tr := 0; tr < trials; tr++ {
		cfg := reservoir.Config{K: k, Weighted: true, Seed: seed + uint64(tr)*17}
		cl, err := reservoir.NewCluster(p, cfg, reservoir.WithAlgorithm(algo))
		must(err)
		batches := make([]reservoir.SliceBatch, p)
		for i, it := range items {
			batches[i%p] = append(batches[i%p], it)
		}
		must(cl.ProcessBatches(batches))
		for _, it := range cl.Sample() {
			counts[it.ID]++
		}
	}
	return counts
}

func twoSampleP(a, b []float64) float64 {
	stat := 0.0
	df := 0
	for i := range a {
		if a[i]+b[i] == 0 {
			continue
		}
		d := a[i] - b[i]
		stat += d * d / (a[i] + b[i])
		df++
	}
	if df < 2 {
		return 0
	}
	return stats.ChiSquareSurvival(stat, float64(df-1))
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
