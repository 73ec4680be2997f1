// Package reservoir is a communication-efficient (weighted) reservoir
// sampling library: a Go reproduction of Hübschle-Schneider & Sanders,
// "Communication-Efficient (Weighted) Reservoir Sampling" (SPAA 2020,
// arXiv:1910.11069).
//
// It maintains a uniform or weighted random sample without replacement of
// size k over the union of data streams that arrive as mini-batches at p
// distributed sites (PEs). No site acts as a coordinator: every PE keeps
// the part of the sample drawn from its own stream in a B+ tree keyed by
// random variates, and after each mini-batch the PEs jointly select the
// globally k-th smallest key — the insertion threshold for the next batch —
// with a communication-efficient distributed selection algorithm.
//
// The collective algorithms run over a pluggable transport. By default
// the distributed machine is simulated: PEs are goroutines, messages pass
// through an in-process network that charges the α+βℓ cost model of the
// paper on deterministic virtual clocks. The same algorithms also run
// across real OS processes over TCP (reservoir-serve's node mode, the
// Node type), producing byte-identical samples for the same seed and
// stream (see DESIGN.md §2).
//
// Entry points:
//
//   - Cluster: the distributed sampler (or the centralized gathering
//     baseline) over p simulated PEs; see NewCluster.
//   - Node: one PE of a real multi-process cluster over a network
//     transport; see NewNode and docs/DEPLOY.md.
//   - SequentialWeighted / SequentialUniform: single-stream reservoir
//     samplers with the paper's skip-value optimizations; see NewWeighted
//     and NewUniform.
//
// A minimal example:
//
//	cfg := reservoir.Config{K: 100, Weighted: true, Seed: 1}
//	cl, _ := reservoir.NewCluster(8, cfg)
//	src := reservoir.UniformSource{Seed: 2, BatchLen: 10000, Lo: 0, Hi: 100}
//	for round := 0; round < 50; round++ {
//		cl.ProcessRound(src)
//	}
//	sample := cl.Sample() // 100 items, weighted without replacement
package reservoir

import (
	"reservoir/internal/core"
	"reservoir/internal/costmodel"
	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// Item is one weighted stream element; the weight must be strictly
// positive for weighted sampling and is ignored for uniform sampling.
type Item = workload.Item

// Batch is one mini-batch of items at one PE.
type Batch = workload.Batch

// SliceBatch is a materialized batch.
type SliceBatch = workload.SliceBatch

// SynthBatch is a batch whose items are generated on demand (O(1) memory).
type SynthBatch = workload.SynthBatch

// Source produces per-PE, per-round mini-batches.
type Source = workload.Source

// UniformSource generates batches with weights uniform in (Lo, Hi] — the
// paper's primary experimental workload.
type UniformSource = workload.UniformSource

// SkewedSource generates normally distributed weights whose mean grows
// with the round number and PE rank — the paper's robustness workload.
type SkewedSource = workload.SkewedSource

// ParetoSource generates heavy-tailed weights.
type ParetoSource = workload.ParetoSource

// Config configures a sampler; the zero value is invalid (set K at least).
type Config = core.Config

// Timing is a per-phase virtual-time breakdown (scan/insert, select,
// threshold, gather), matching the paper's Figure 6 categories.
type Timing = core.Timing

// Counters aggregates operation counts (items, insertions, selection
// rounds, candidate traffic).
type Counters = core.Counters

// SelStrategy picks the distributed selection algorithm.
type SelStrategy = core.SelStrategy

// Selection strategies (paper Sec 3.3).
const (
	// SelSinglePivot is the universally applicable single-pivot algorithm
	// ("ours").
	SelSinglePivot = core.SelSinglePivot
	// SelMultiPivot uses Config.Pivots pivots per round ("ours-8" with
	// Pivots = 8).
	SelMultiPivot = core.SelMultiPivot
	// SelRandomDist exploits randomly distributed inputs.
	SelRandomDist = core.SelRandomDist
)

// CostModel holds the virtual-time charges of the simulated machine.
type CostModel = costmodel.Model

// DefaultCostModel returns the default cost model (see package costmodel).
func DefaultCostModel() CostModel { return costmodel.Default() }

// SequentialWeighted is a single-stream weighted reservoir sampler using
// exponential jumps (paper Sec 4.1).
type SequentialWeighted = core.SeqWeighted

// SequentialUniform is a single-stream uniform reservoir sampler using
// geometric jumps (paper Sec 4.3).
type SequentialUniform = core.SeqUniform

// NewWeighted returns a sequential weighted sampler with sample size k.
func NewWeighted(k int, seed uint64) *SequentialWeighted {
	return core.NewSeqWeighted(k, rng.NewXoshiro256(seed))
}

// NewUniform returns a sequential uniform sampler with sample size k.
func NewUniform(k int, seed uint64) *SequentialUniform {
	return core.NewSeqUniform(k, rng.NewXoshiro256(seed))
}
