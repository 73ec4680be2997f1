// Command reservoir-sim runs a single distributed sampling configuration on
// the simulated cluster and prints its measurements — a workbench for
// exploring the algorithms outside the fixed benchmark sweeps.
//
// Example:
//
//	reservoir-sim -p 64 -k 1000 -b 10000 -rounds 10 -algo ours-8
//	reservoir-sim -p 16 -k 500 -b 50000 -algo gather -uniform
//	reservoir-sim -p 16 -kmin 800 -kmax 1600 -b 10000   # variable size
package main

import (
	"flag"
	"fmt"
	"os"

	"reservoir"
)

func main() {
	p := flag.Int("p", 16, "number of simulated PEs")
	k := flag.Int("k", 1000, "sample size")
	kmin := flag.Int("kmin", 0, "variable mode: minimum sample size")
	kmax := flag.Int("kmax", 0, "variable mode: maximum sample size")
	b := flag.Int("b", 10000, "mini-batch size per PE")
	rounds := flag.Int("rounds", 10, "mini-batch rounds")
	algo := flag.String("algo", "ours", "algorithm: ours | ours-8 | gather")
	uniform := flag.Bool("uniform", false, "uniform (unweighted) sampling")
	skewed := flag.Bool("skewed", false, "skewed normal weights instead of uniform weights")
	seed := flag.Uint64("seed", 1, "RNG seed")
	flag.Parse()

	cfg := reservoir.Config{
		K:              *k,
		KMin:           *kmin,
		KMax:           *kmax,
		Weighted:       !*uniform,
		Seed:           *seed,
		LocalThreshold: true,
	}
	clAlgo := reservoir.Distributed
	switch *algo {
	case "ours":
		cfg.Strategy = reservoir.SelSinglePivot
	case "ours-8":
		cfg.Strategy = reservoir.SelMultiPivot
		cfg.Pivots = 8
	case "gather":
		clAlgo = reservoir.CentralizedGather
	default:
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algo)
		os.Exit(2)
	}

	cl, err := reservoir.NewCluster(*p, cfg, reservoir.WithAlgorithm(clAlgo))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var src reservoir.Source = reservoir.UniformSource{Seed: *seed ^ 0xABCD, BatchLen: *b, Lo: 0, Hi: 100}
	if *skewed {
		src = reservoir.SkewedSource{Seed: *seed ^ 0xABCD, BatchLen: *b,
			BaseMean: 50, RoundInc: 10, RankInc: 1, SD: 10}
	}

	for r := 0; r < *rounds; r++ {
		cl.ProcessRound(src)
	}

	sample := cl.Sample()
	th, have := cl.Threshold()
	tm := cl.Timing()
	ns := cl.NetworkStats()
	c := cl.Counters()

	fmt.Printf("algorithm        %s (%s)\n", *algo, cl.Algorithm())
	fmt.Printf("PEs              %d\n", *p)
	fmt.Printf("rounds           %d x %d items/PE = %d items total\n", *rounds, *b, *rounds**b**p)
	fmt.Printf("sample size      %d\n", len(sample))
	if have {
		fmt.Printf("threshold        %.6g\n", th)
	} else {
		fmt.Printf("threshold        (none: fewer than k items seen)\n")
	}
	fmt.Printf("virtual time     %.3f ms (%.3f ms/round)\n", cl.VirtualTime()/1e6, cl.VirtualTime()/1e6/float64(*rounds))
	fmt.Printf("  scan/insert    %.3f ms\n", tm.ScanNS/1e6)
	fmt.Printf("  select         %.3f ms\n", tm.SelectNS/1e6)
	fmt.Printf("  threshold      %.3f ms\n", tm.ThresholdNS/1e6)
	if tm.GatherNS > 0 {
		fmt.Printf("  gather         %.3f ms\n", tm.GatherNS/1e6)
	}
	fmt.Printf("network          %d messages, %d words\n", ns.Messages, ns.Words)
	fmt.Printf("insertions       %d total (%.1f per PE per round)\n",
		c.Inserted, float64(c.Inserted)/float64(*p)/float64(*rounds))
	if c.Selections > 0 && clAlgo == reservoir.Distributed {
		fmt.Printf("selections       %d, avg recursion depth %.2f, %d finished by the tail all-reduction\n",
			c.Selections/int64(*p), float64(c.SelectionRounds)/float64(c.Selections), c.TailSelections/int64(*p))
	}
}
