// Package workload defines the input data model (weighted items arriving
// in mini-batches) and the synthetic workload generators used by the
// experiments:
//
//   - uniform random weights from (0, 100], the paper's main input
//     (Sec 6.1),
//   - skewed weights, normally distributed with the mean increasing with
//     the mini-batch number and the PE's rank (the paper's robustness
//     check),
//   - Pareto (heavy-tailed) weights for the heavy-hitter example.
//
// Batches can be materialized (SliceBatch) or synthesized on the fly from a
// counter-based generator (SynthBatch), which lets experiments process
// arbitrarily large batches in O(1) memory — the simulated analogue of
// items arriving over the network.
package workload

import (
	"math"

	"reservoir/internal/rng"
)

// Item is one weighted stream element. For uniform (unweighted) sampling
// the weight is ignored.
type Item struct {
	W  float64
	ID uint64
}

// Batch is one mini-batch of items at one PE. Implementations must be
// cheap to index repeatedly and safe for concurrent reads: a sharded scan
// (Config.Shards > 1) reads each shard's index range of a weighted batch
// on its own goroutine.
type Batch interface {
	Len() int
	At(i int) Item
}

// SliceBatch is a materialized batch.
type SliceBatch []Item

// Len returns the number of items.
func (b SliceBatch) Len() int { return len(b) }

// At returns the i-th item.
func (b SliceBatch) At(i int) Item { return b[i] }

// SynthBatch generates items on demand: item i has weight W(i) and ID
// IDBase+i. It is safe for concurrent use if W and WBulk are.
type SynthBatch struct {
	N      int
	IDBase uint64
	W      func(i uint64) float64
	// WBulk, when non-nil, must fill dst[j] = W(base+j) for all j in one
	// call. FillWeights prefers it: a closure call per item costs about
	// twice what the generator math does, and the skip scans read every
	// weight of every batch. Every source in this module sets it, so W
	// serves only At.
	WBulk func(base uint64, dst []float64)
}

// Len returns the number of items.
func (b *SynthBatch) Len() int { return b.N }

// At returns the i-th item.
func (b *SynthBatch) At(i int) Item {
	return Item{W: b.W(uint64(i)), ID: b.IDBase + uint64(i)}
}

// FillWeights copies the weights of items [0, len(dst)) into dst. The skip
// scans spend most of their time reading weights; going through Batch.At
// costs an interface dispatch (and for SynthBatch an Item construction)
// per item, so the hot paths materialize weights into a flat slice once
// via this helper, which devirtualizes the known batch kinds.
func FillWeights(b Batch, dst []float64) { FillWeightsFrom(b, 0, dst) }

// FillWeightsFrom copies the weights of items [lo, lo+len(dst)) into dst:
// the offset form of FillWeights, with which each scan shard fills its
// own index range.
func FillWeightsFrom(b Batch, lo int, dst []float64) {
	switch bb := b.(type) {
	case *SynthBatch:
		if bb.WBulk != nil {
			bb.WBulk(uint64(lo), dst)
			return
		}
		w := bb.W
		for i := range dst {
			dst[i] = w(uint64(lo + i))
		}
	case SliceBatch:
		for i, it := range bb[lo : lo+len(dst)] {
			dst[i] = it.W
		}
	default:
		for i := range dst {
			dst[i] = b.At(lo + i).W
		}
	}
}

// --- weight distributions -------------------------------------------------

// UniformWeight returns a weight function drawing from (lo, hi] using the
// stateless counter generator, so batches need no storage.
func UniformWeight(seed uint64, lo, hi float64) func(i uint64) float64 {
	c := rng.Counter{Seed: seed}
	return func(i uint64) float64 {
		return lo + float64(c.U01At(i)*(hi-lo))
	}
}

// UniformWeightBulk is the block-fill form of UniformWeight (same seed →
// identical values): the hoisted counter stream and its unrolled affine
// fill cut the per-item cost of materializing a batch's weights to
// roughly a third of the closure-per-item form. The weight fill is the
// single largest CPU consumer of a cluster node under synthetic load, so
// this loop is worth its specialization.
func UniformWeightBulk(seed uint64, lo, hi float64) func(base uint64, dst []float64) {
	cs := rng.Counter{Seed: seed}.Stream()
	scale := hi - lo
	return func(base uint64, dst []float64) {
		cs.U01AffineFill(base, dst, lo, scale)
	}
}

// NormalWeight returns a weight function drawing from N(mean, sd) truncated
// to be strictly positive (values below floor are clamped to floor).
func NormalWeight(seed uint64, mean, sd, floor float64) func(i uint64) float64 {
	cs := rng.Counter{Seed: seed}.Stream()
	return func(i uint64) float64 { return normalAt(cs, i, mean, sd, floor) }
}

// NormalWeightBulk is the block-fill form of NormalWeight (same seed →
// identical values).
func NormalWeightBulk(seed uint64, mean, sd, floor float64) func(base uint64, dst []float64) {
	cs := rng.Counter{Seed: seed}.Stream()
	return func(base uint64, dst []float64) {
		for j := range dst {
			dst[j] = normalAt(cs, base+uint64(j), mean, sd, floor)
		}
	}
}

// normalAt is item i's NormalWeight draw: Box-Muller from two counter
// draws.
func normalAt(cs rng.CounterStream, i uint64, mean, sd, floor float64) float64 {
	u1 := cs.U01At(2 * i)
	u2 := cs.U01At(2*i + 1)
	w := mean + float64(sd*math.Sqrt(-2*math.Log(u1))*math.Cos(2*math.Pi*u2))
	if w < floor {
		return floor
	}
	return w
}

// ParetoWeight returns a heavy-tailed weight function: Pareto with the
// given shape, scale 1.
func ParetoWeight(seed uint64, shape float64) func(i uint64) float64 {
	c := rng.Counter{Seed: seed}
	return func(i uint64) float64 {
		return math.Pow(c.U01At(i), -1/shape)
	}
}

// ParetoWeightBulk is the block-fill form of ParetoWeight (same seed →
// identical values): one unrolled pass of uniform draws, then the powers.
func ParetoWeightBulk(seed uint64, shape float64) func(base uint64, dst []float64) {
	cs := rng.Counter{Seed: seed}.Stream()
	e := -1 / shape
	return func(base uint64, dst []float64) {
		// 0 + u·1 == u exactly, so the affine fill leaves the draws as is.
		cs.U01AffineFill(base, dst, 0, 1)
		for j, u := range dst {
			dst[j] = math.Pow(u, e)
		}
	}
}

// --- sources ----------------------------------------------------------------

// Source produces the mini-batch for a given PE and round. Implementations
// must be safe for concurrent calls with different pe arguments.
type Source interface {
	// NextBatch returns PE pe's batch for the given round.
	NextBatch(pe, round int) Batch
}

// batchSeed derives a unique stream seed per (source, pe, round).
func batchSeed(seed uint64, pe, round int) uint64 {
	return rng.Mix64(seed ^ rng.Mix64(uint64(pe)*0x9e3779b97f4a7c15+uint64(round)))
}

// idBase gives every (pe, round) a disjoint 2^26-item ID range, so item IDs
// are globally unique for up to 2^19 PEs and 2^19 rounds.
func idBase(pe, round int) uint64 {
	return (uint64(pe)<<19 | uint64(round)) << 26
}

// UniformSource issues BatchLen items per PE per round with weights uniform
// in (Lo, Hi], the paper's primary workload (weights from 0..100).
type UniformSource struct {
	Seed     uint64
	BatchLen int
	Lo, Hi   float64
}

// NextBatch implements Source.
func (s UniformSource) NextBatch(pe, round int) Batch {
	seed := batchSeed(s.Seed, pe, round)
	return &SynthBatch{
		N:      s.BatchLen,
		IDBase: idBase(pe, round),
		W:      UniformWeight(seed, s.Lo, s.Hi),
		WBulk:  UniformWeightBulk(seed, s.Lo, s.Hi),
	}
}

// SkewedSource reproduces the paper's skewed-input check: weights are
// normally distributed with the mean increasing with both the mini-batch
// number and the PE's rank.
type SkewedSource struct {
	Seed     uint64
	BatchLen int
	BaseMean float64 // mean for PE 0, round 0
	RoundInc float64 // mean increment per round
	RankInc  float64 // mean increment per PE rank
	SD       float64
}

// NextBatch implements Source.
func (s SkewedSource) NextBatch(pe, round int) Batch {
	mean := s.BaseMean + float64(float64(round)*s.RoundInc) + float64(float64(pe)*s.RankInc)
	seed := batchSeed(s.Seed, pe, round)
	return &SynthBatch{
		N:      s.BatchLen,
		IDBase: idBase(pe, round),
		W:      NormalWeight(seed, mean, s.SD, 1e-9),
		WBulk:  NormalWeightBulk(seed, mean, s.SD, 1e-9),
	}
}

// ParetoSource issues heavy-tailed weights (a few items dominate the total
// weight), used by the heavy-hitter example.
type ParetoSource struct {
	Seed     uint64
	BatchLen int
	Shape    float64
}

// NextBatch implements Source.
func (s ParetoSource) NextBatch(pe, round int) Batch {
	seed := batchSeed(s.Seed, pe, round)
	return &SynthBatch{
		N:      s.BatchLen,
		IDBase: idBase(pe, round),
		W:      ParetoWeight(seed, s.Shape),
		WBulk:  ParetoWeightBulk(seed, s.Shape),
	}
}

// Materialize copies a batch into a SliceBatch (used by tests and small
// examples).
func Materialize(b Batch) SliceBatch {
	out := make(SliceBatch, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}
