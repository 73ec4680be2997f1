// Command reservoir-bench regenerates the paper's evaluation (Sec 6):
//
//	reservoir-bench -exp weak         # Figure 3: weak scaling speedups
//	reservoir-bench -exp strong       # Figures 4+5: strong scaling + throughput
//	reservoir-bench -exp composition  # Figure 6: running time composition
//	reservoir-bench -exp depth        # Sec 6.3: selection recursion depth
//	reservoir-bench -exp insertions   # Lemma 2 / Theorem 3 validation
//	reservoir-bench -exp all          # everything
//
// Scales: -scale tiny|small|paper (default small). "paper" uses the paper's
// full parameters (20 PEs/node, up to 256 nodes, batches up to 10^6) and
// can run for many hours; "small" shrinks every dimension ~10-20x and
// reproduces all qualitative shapes in minutes (see DESIGN.md §2).
//
// Reported times are virtual: deterministic cost-model time of the
// simulated machine, not wall-clock time of this process.
//
// With -json PATH the structured results are additionally written as a
// BENCH_*.json report in the shared schema of internal/bench (the same
// format reservoir-loadgen emits); see docs/BENCHMARKS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"reservoir/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: weak|strong|composition|depth|insertions|ablation|all")
	scaleName := flag.String("scale", "small", "parameter scale: tiny|small|paper")
	pesPerNode := flag.Int("pes-per-node", 0, "override PEs per node")
	rounds := flag.Int("rounds", 0, "override measured rounds per configuration")
	seed := flag.Uint64("seed", 0, "override RNG seed")
	jsonPath := flag.String("json", "", "also write results as a BENCH_*.json report to this path")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "tiny":
		scale = bench.TinyScale()
	case "small":
		scale = bench.SmallScale()
	case "paper":
		scale = bench.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *pesPerNode > 0 {
		scale.PEsPerNode = *pesPerNode
	}
	if *rounds > 0 {
		scale.Measure = *rounds
	}
	if *seed != 0 {
		scale.Seed = *seed
	}

	start := time.Now()
	rep, err := runExperiments(*exp, scale, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rep.CreatedAt = start.UTC().Format(time.RFC3339)
	if *jsonPath != "" {
		if err := rep.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d results to %s\n", len(rep.Results), *jsonPath)
	}
	fmt.Printf("\ntotal wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// experiments lists every -exp name with the rows it adds to the report,
// in the order -exp all runs them.
var experiments = []struct {
	name string
	run  func(bench.Scale, io.Writer, *bench.Report)
}{
	{"weak", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddFigRows(bench.WeakScaling(s, w)) }},
	{"strong", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddFigRows(bench.StrongScaling(s, w)) }},
	{"composition", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddCompositionRows(bench.Composition(s, w)) }},
	{"depth", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddDepthRows(bench.RecursionDepth(s, w)) }},
	{"insertions", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddInsertionRows(bench.InsertionBound(s, w)) }},
	{"ablation", func(s bench.Scale, w io.Writer, r *bench.Report) { r.AddAblationRows(bench.Ablation(s, w)) }},
}

// runExperiments runs experiment exp ("all" for every one) at the given
// scale, prints its tables to w and returns the report without a
// creation time. Everything but the wall-time lines printed to w is a
// deterministic function of exp and scale.
func runExperiments(exp string, scale bench.Scale, w io.Writer) (*bench.Report, error) {
	fmt.Fprintf(w, "reservoir-bench: scale=%s, %d PEs/node, nodes %v (virtual times; deterministic)\n",
		scale.Name, scale.PEsPerNode, scale.Nodes)
	rep := bench.NewReport("reservoir-bench", "paper_"+exp)
	rep.Params = map[string]any{
		"scale": scale.Name, "exp": exp, "pes_per_node": scale.PEsPerNode,
		"measure_rounds": scale.Measure, "seed": scale.Seed,
	}
	ran := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		t := time.Now()
		e.run(scale, w, rep)
		fmt.Fprintf(w, "\n[%s done in %v wall time]\n", e.name, time.Since(t).Round(time.Millisecond))
		ran = true
	}
	if !ran {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	return rep, nil
}
