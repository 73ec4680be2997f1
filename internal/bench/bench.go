// Package bench is the experiment harness that regenerates the paper's
// evaluation (Sec 6): weak scaling (Figure 3), strong scaling speedups and
// per-PE throughput (Figures 4 and 5), running time composition (Figure 6),
// the selection recursion depth study (Sec 6.3 in-text), and a validation
// of the insertion-count analysis (Lemma 2 / Theorem 3).
//
// Times are virtual (deterministic, from the cost model); see DESIGN.md §2
// for the scale-down mapping from the paper's 5120-PE cluster.
package bench

import (
	"fmt"
	"io"

	"reservoir"
	"reservoir/internal/costmodel"
	"reservoir/internal/workload"
)

// Scale bundles all experiment parameters. The paper's values are given by
// PaperScale; SmallScale (the default) shrinks batch sizes and PE counts by
// roughly 10-20x each so a laptop regenerates every figure in minutes, and
// TinyScale makes the go-test benchmarks fast.
type Scale struct {
	Name       string
	PEsPerNode int
	Nodes      []int // node counts to sweep (PEs = Nodes*PEsPerNode)
	WeakBatch  []int // per-PE mini-batch sizes b (weak scaling)
	WeakK      []int // sample sizes k
	StrongB    []int // total per-round batch sizes B (strong scaling)
	StrongK    []int
	Warmup     int // unmeasured leading rounds (first batch fills reservoirs)
	Measure    int // measured rounds
	Seed       uint64
	Model      costmodel.Model
}

// PaperScale returns the paper's configuration (Sec 6.1): 20 PEs per node,
// up to 256 nodes, b in {1e4, 1e5, 1e6}, k in {1e3, 1e4, 1e5},
// B in {2^10*1e4, 2^10*1e5, 2^10*1e6}. Running it takes many hours.
func PaperScale() Scale {
	m := costmodel.Default()
	m.CacheItems = 100_000 // the paper's ~10^5-item cache crossover
	return Scale{
		Name:       "paper",
		PEsPerNode: 20,
		Nodes:      []int{1, 4, 16, 64, 256},
		WeakBatch:  []int{10_000, 100_000, 1_000_000},
		WeakK:      []int{1_000, 10_000, 100_000},
		StrongB:    []int{1024 * 10_000, 1024 * 100_000, 1024 * 1_000_000},
		StrongK:    []int{1_000, 10_000, 100_000},
		Warmup:     1,
		Measure:    4,
		Seed:       0xC0FFEE,
		Model:      m,
	}
}

// SmallScale returns the default laptop-sized configuration: 4 PEs per
// node, up to 64 nodes (256 PEs), batches and sample sizes 10x smaller than
// the paper. The cost model's cache crossover shrinks proportionally so the
// strong-scaling bump lands mid-sweep exactly as in the paper.
func SmallScale() Scale {
	m := costmodel.Default()
	m.CacheItems = 32_768
	// α scales with the machine: at 256 PEs (vs the paper's 5120) and
	// 10x-smaller sample sizes, a 0.5µs startup latency keeps the ratio of
	// selection latency to local work comparable to the paper's setup.
	m.AlphaNS = 500
	return Scale{
		Name:       "small",
		PEsPerNode: 4,
		Nodes:      []int{1, 4, 16, 64},
		WeakBatch:  []int{1_000, 10_000, 100_000},
		WeakK:      []int{100, 1_000, 10_000},
		StrongB:    []int{256 * 1_000, 256 * 10_000, 256 * 100_000},
		StrongK:    []int{100, 1_000, 10_000},
		Warmup:     3,
		Measure:    6,
		Seed:       0xC0FFEE,
		Model:      m,
	}
}

// TinyScale returns a seconds-fast configuration for automated benchmarks.
func TinyScale() Scale {
	m := costmodel.Default()
	m.CacheItems = 2_048
	m.AlphaNS = 500
	return Scale{
		Name:       "tiny",
		PEsPerNode: 2,
		Nodes:      []int{1, 2, 4},
		WeakBatch:  []int{500, 2_000},
		WeakK:      []int{20, 100},
		StrongB:    []int{8 * 500, 8 * 2_000},
		StrongK:    []int{20, 100},
		Warmup:     1,
		Measure:    2,
		Seed:       0xC0FFEE,
		Model:      m,
	}
}

// AlgoSpec names one competitor of the paper's experiments.
type AlgoSpec struct {
	Name     string
	Algo     reservoir.Algorithm
	Strategy reservoir.SelStrategy
	Pivots   int
}

// Algos returns the paper's three competitors: ours (single-pivot),
// ours-8 (multi-pivot with d=8), and gather (centralized baseline).
func Algos() []AlgoSpec {
	return []AlgoSpec{
		{Name: "ours", Algo: reservoir.Distributed, Strategy: reservoir.SelSinglePivot},
		{Name: "ours-8", Algo: reservoir.Distributed, Strategy: reservoir.SelMultiPivot, Pivots: 8},
		{Name: "gather", Algo: reservoir.CentralizedGather},
	}
}

// RunParams describes one measured configuration.
type RunParams struct {
	P          int // number of PEs
	K          int
	BatchPerPE int
	Algo       AlgoSpec
	Warmup     int
	Measure    int
	Seed       uint64
	Model      costmodel.Model
	// NoLocalThreshold disables the first-batch local thresholding of
	// Sec 5 (used by the ablation experiment; the paper's implementation
	// always enables it).
	NoLocalThreshold bool
	// Skewed switches the workload to the paper's skewed-normal weights.
	Skewed bool
}

// RunResult holds the measurements of one configuration.
type RunResult struct {
	Params RunParams
	// RoundNS is the average virtual time per measured round (steady
	// state, excluding warmup).
	RoundNS float64
	// TotalNS is the virtual time of the whole run including warmup.
	TotalNS float64
	// ThroughputPerPE is items per virtual second per PE.
	ThroughputPerPE float64
	// Timing is the per-phase composition of the measured (post-warmup,
	// steady state) rounds, max over PEs per phase. The paper's 30-second
	// windows run hundreds of rounds so their startup transient is
	// negligible; excluding our warmup rounds is the scaled-down
	// equivalent.
	Timing reservoir.Timing
	// AvgSelectionDepth is the mean recursion depth of the threshold
	// selections (0 for gather).
	AvgSelectionDepth float64
	// MeanInsertedPerPE / MaxInsertedPerPE summarize per-PE reservoir
	// insertions over the whole run.
	MeanInsertedPerPE float64
	MaxInsertedPerPE  float64
	// MeanInsertedPostWarmup / MaxInsertedPostWarmup count only the
	// measured rounds (the steady-state process that Lemma 2 / Theorem 3
	// analyze; the unmeasured first batch fills the reservoir wholesale).
	MeanInsertedPostWarmup float64
	MaxInsertedPostWarmup  float64
	// MsgsPerRound / WordsPerRound are network totals divided by rounds.
	MsgsPerRound  float64
	WordsPerRound float64
}

// Run executes one configuration and returns its measurements.
func Run(p RunParams) RunResult {
	cfg := reservoir.Config{
		K:        p.K,
		Weighted: true,
		Strategy: p.Algo.Strategy,
		Pivots:   p.Algo.Pivots,
		// The paper's implementation always uses its Sec 5 optimizations;
		// the ablation experiment switches local thresholding off.
		LocalThreshold: !p.NoLocalThreshold,
		Seed:           p.Seed,
		Model:          p.Model,
	}
	cl, err := reservoir.NewCluster(p.P, cfg, reservoir.WithAlgorithm(p.Algo.Algo))
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	var src workload.Source = workload.UniformSource{Seed: p.Seed ^ 0x5eed, BatchLen: p.BatchPerPE, Lo: 0, Hi: 100}
	if p.Skewed {
		src = workload.SkewedSource{Seed: p.Seed ^ 0x5eed, BatchLen: p.BatchPerPE,
			BaseMean: 50, RoundInc: 10, RankInc: 1, SD: 10}
	}
	for r := 0; r < p.Warmup; r++ {
		cl.ProcessRound(src)
	}
	warmEnd := cl.VirtualTime()
	warmIns := make([]float64, p.P)
	warmTiming := make([]reservoir.Timing, p.P)
	for pe := 0; pe < p.P; pe++ {
		warmIns[pe] = float64(cl.PECounters(pe).Inserted)
		warmTiming[pe] = cl.PETiming(pe)
	}
	for r := 0; r < p.Measure; r++ {
		cl.ProcessRound(src)
	}
	end := cl.VirtualTime()

	res := RunResult{Params: p, TotalNS: end}
	res.RoundNS = (end - warmEnd) / float64(p.Measure)
	if res.RoundNS > 0 {
		res.ThroughputPerPE = float64(p.BatchPerPE) / (res.RoundNS / 1e9)
	}
	for pe := 0; pe < p.P; pe++ {
		res.Timing = res.Timing.Max(cl.PETiming(pe).Sub(warmTiming[pe]))
	}
	c := cl.Counters()
	if c.Selections > 0 {
		res.AvgSelectionDepth = float64(c.SelectionRounds) / float64(c.Selections)
	}
	var sum, max, postSum, postMax float64
	for pe := 0; pe < p.P; pe++ {
		ins := float64(cl.PECounters(pe).Inserted)
		sum += ins
		if ins > max {
			max = ins
		}
		post := ins - warmIns[pe]
		postSum += post
		if post > postMax {
			postMax = post
		}
	}
	res.MeanInsertedPerPE = sum / float64(p.P)
	res.MaxInsertedPerPE = max
	res.MeanInsertedPostWarmup = postSum / float64(p.P)
	res.MaxInsertedPostWarmup = postMax
	ns := cl.NetworkStats()
	rounds := float64(p.Warmup + p.Measure)
	res.MsgsPerRound = float64(ns.Messages) / rounds
	res.WordsPerRound = float64(ns.Words) / rounds
	return res
}

// --- helpers ----------------------------------------------------------------

func fmtCount(v int) string {
	switch {
	case v >= 1_000_000 && v%1_000_000 == 0:
		return fmt.Sprintf("%dM", v/1_000_000)
	case v >= 1_000 && v%1_000 == 0:
		return fmt.Sprintf("%dk", v/1_000)
	default:
		return fmt.Sprintf("%d", v)
	}
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

func seedFor(base uint64, parts ...int) uint64 {
	s := base
	for _, p := range parts {
		s = s*0x9e3779b97f4a7c15 + uint64(p) + 0x51ed
	}
	return s
}
