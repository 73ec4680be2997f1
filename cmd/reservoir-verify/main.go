// Command reservoir-verify runs the statistical acceptance harness
// (internal/stats/accept, DESIGN.md §7): every (algorithm × scenario)
// cell is tested against the naive key-sorting oracle and the exact k=1
// inclusion law, under a Bonferroni-corrected family-wise level. With
// -mutant it runs the power check instead: a deliberately biased sampler
// must be REJECTED.
//
// With -match it instead replays a multi-process cluster's sample dump on
// the in-process simulator and demands a byte-identical sample.
//
// Exit status 0 means the verdict was the expected one.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	k := flag.Int("k", 12, "sample size")
	p := flag.Int("p", 4, "PEs of the stream and the cluster algorithms")
	seed := flag.Uint64("seed", 7, "base seed")
	match := flag.String("match", "", "verify a cluster sample dump (reservoir-loadgen -cluster -sample-out) against a simulator replay instead of running the acceptance harness")
	scenarios := flag.String("scenario", "all", "comma-separated scenario presets, or \"all\"")
	algos := flag.String("algos", "sequential,distributed,gather", "comma-separated algorithms: sequential, distributed, pipelined, random-dist, gather")
	acceptTrials := flag.Int("accept-trials", 400, "trials per (algorithm x scenario) cell")
	rounds := flag.Int("rounds", 8, "rounds per trial")
	batch := flag.Int("batch", 64, "mean items per PE per round")
	shards := flag.Int("shards", 0, "logical scan-shard count for the cluster algorithms (0 means 1)")
	acceptAlpha := flag.Float64("accept-alpha", 1e-3, "family-wise significance level (Bonferroni-split across checks)")
	acceptOut := flag.String("accept-out", "", "write the reservoir-accept/v1 verdict report to this path")
	mutant := flag.Bool("mutant", false, "power check: swap in the deliberately biased sampler and require the harness to REJECT it")
	flag.Parse()

	if *match != "" {
		if err := runMatch(*match); err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-verify: match FAILED:", err)
			os.Exit(1)
		}
		return
	}

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
}
