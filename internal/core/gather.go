package core

import (
	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/costmodel"
	"reservoir/internal/quickselect"
	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// keyedItem travels from the PEs to the gather root: an item plus its key.
type keyedItem struct {
	Key  btree.Key
	Item workload.Item
}

const keyedItemWords = 4 // key (2 words) + weight + id

// threshMsg broadcasts the root's new threshold decision each round
// (package-scoped so wire.go can give it a hand-rolled codec).
type threshMsg struct {
	T    btree.Key
	Have bool
	Size int
}

// GatherPE is one PE of the centralized comparison algorithm (Sec 4.5):
// PEs filter their mini-batches against the current threshold and send the
// surviving candidates to a designated root (PE 0), which selects the k
// smallest keys sequentially, keeps those items as the sample, and
// broadcasts the new threshold. It adapts Jayaram et al.'s coordinator
// model to mini-batches.
type GatherPE struct {
	cfg   Config
	comm  *coll.Comm
	model costmodel.Model
	src   *rng.Xoshiro256

	// cands collects this batch's surviving candidates; scan is the skip
	// scan's buffer they are built from.
	cands []keyedItem
	scan  []cand
	// root state (only PE 0): the current sample.
	rootRes []keyedItem

	thresh  btree.Key
	haveT   bool
	keySeq  uint64
	size    int
	seen    int64
	timing  Timing
	counter Counters
}

var _ Sampler = (*GatherPE)(nil)

// NewGatherPE creates this PE's instance of the centralized baseline.
// The variable-size mode (Config.KMax > 0) is not supported.
func NewGatherPE(comm *coll.Comm, cfg Config) (*GatherPE, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	return &GatherPE{
		cfg:   cfg,
		comm:  comm,
		model: cfg.Model,
		src:   rng.NewXoshiro256(rng.Mix64(cfg.Seed ^ (0xd1b54a32d192ed03 * uint64(comm.Rank()+1)))),
	}, nil
}

func (pe *GatherPE) nextKeyID() uint64 {
	pe.keySeq++
	return uint64(pe.comm.Rank())<<40 | pe.keySeq
}

// ProcessBatch implements Sampler.
func (pe *GatherPE) ProcessBatch(b workload.Batch) {
	clock := pe.comm.Conn
	k := pe.cfg.K

	// Phase 1: filter the batch against the current threshold. Same key
	// machinery as the distributed sampler, but candidates go to a flat
	// array instead of a B+ tree.
	t0 := clock.Clock()
	pe.cands = pe.cands[:0]
	if !pe.haveT {
		pe.filterAll(b)
	} else if pe.cfg.Weighted {
		pe.filterWeighted(b)
	} else {
		pe.filterUniform(b)
	}
	pe.counter.ItemsProcessed += int64(b.Len())
	pe.counter.Inserted += int64(len(pe.cands))
	pe.timing.ScanNS += clock.Clock() - t0

	// Phase 2: gather candidates at the root.
	t1 := clock.Clock()
	words := len(pe.cands) * keyedItemWords
	clock.Work(pe.model.PackCostNS(words))
	pe.counter.CandidateWords += int64(words)
	parts := coll.Gather(pe.comm, 0, pe.cands, keyedItemWords)
	batchTotal := coll.AllReduce(pe.comm, b.Len(), coll.SumInt, 1)
	pe.seen += int64(batchTotal)
	pe.timing.GatherNS += clock.Clock() - t1

	// Phase 3: the root merges candidates into its reservoir and selects
	// the k smallest keys sequentially.
	t2 := clock.Clock()
	var newThresh btree.Key
	var newHave bool
	var newSize int
	if pe.comm.Rank() == 0 {
		all := pe.rootRes
		for _, p := range parts {
			all = append(all, p...)
		}
		clock.Work(pe.model.PackCostNS(len(all) * keyedItemWords))
		if len(all) > k {
			clock.Work(pe.model.QuickselectCostNS(len(all)))
			kth := quickselect.Select(all, k, func(a, b keyedItem) bool { return a.Key.Less(b.Key) }, pe.src)
			all = all[:k]
			newThresh, newHave = kth.Key, true
			newSize = k
		} else {
			if len(all) == k {
				// Exactly full: the max key is the threshold.
				var mx btree.Key
				for _, ki := range all {
					if mx.Less(ki.Key) {
						mx = ki.Key
					}
				}
				clock.Work(pe.model.QuickselectCostNS(len(all)))
				newThresh, newHave = mx, true
			}
			newSize = len(all)
		}
		pe.rootRes = all
		pe.counter.Selections++
	}
	pe.timing.SelectNS += clock.Clock() - t2

	// Phase 4: broadcast the new threshold.
	t3 := clock.Clock()
	m := coll.Broadcast(pe.comm, 0, threshMsg{T: newThresh, Have: newHave, Size: newSize}, 4)
	if m.Have {
		pe.thresh, pe.haveT = m.T, true
	}
	pe.size = m.Size
	pe.timing.ThresholdNS += clock.Clock() - t3
}

// filterAll keys every item (no threshold yet). Per Sec 4.5, a PE receiving
// more than k items in this phase only retains the k smallest-keyed ones;
// we reuse the sequential samplers for exactly that.
func (pe *GatherPE) filterAll(b workload.Batch) {
	n := b.Len()
	clock := pe.comm.Conn
	k := pe.cfg.K
	// Retain the k smallest keys with a bounded max-heap.
	var h maxHeap
	for i := 0; i < n; i++ {
		it := b.At(i)
		var v float64
		if pe.cfg.Weighted {
			v = rng.Exponential(pe.src, it.W)
		} else {
			v = rng.U01(pe.src)
		}
		if h.len() < k {
			h.push(v, it)
		} else if v < h.keys[0] {
			h.replaceMax(v, it)
		}
	}
	for i, key := range h.keys {
		pe.cands = append(pe.cands, keyedItem{
			Key:  btree.Key{V: key, ID: pe.nextKeyID()},
			Item: h.items[i],
		})
	}
	clock.Work(float64(n) * (pe.model.ScanPerItemNS(n, false) + pe.model.RNGNS))
	clock.Work(float64(len(pe.cands)) * pe.model.PackNS * keyedItemWords)
}

// filterWeighted runs the exponential-jumps skip scan over the whole
// batch, appending surviving items to the candidate array.
func (pe *GatherPE) filterWeighted(b workload.Batch) {
	n := b.Len()
	wp := grabWeights(n)
	workload.FillWeights(b, *wp)
	var draws int64
	pe.scan, draws = scanShardWeighted(pe.src, *wp, 0, n, pe.thresh.V, pe.scan[:0])
	releaseWeights(wp)
	pe.appendScanned(b)
	pe.comm.Conn.Work(float64(float64(n)*pe.model.ScanPerItemNS(n, true)) + float64(float64(draws)*pe.model.RNGNS))
}

// filterUniform runs the geometric jumps of Sec 4.3.
func (pe *GatherPE) filterUniform(b workload.Batch) {
	var draws int64
	pe.scan, draws = scanShardUniform(pe.src, 0, b.Len(), pe.thresh.V, pe.scan[:0])
	pe.appendScanned(b)
	pe.comm.Conn.Work(float64(draws) * pe.model.RNGNS)
}

// appendScanned turns the scan's hits into keyed candidates, in index
// order.
func (pe *GatherPE) appendScanned(b workload.Batch) {
	for _, c := range pe.scan {
		pe.cands = append(pe.cands, keyedItem{Key: btree.Key{V: c.v, ID: pe.nextKeyID()}, Item: b.At(int(c.idx))})
	}
}

// CollectSample implements Sampler: the sample already lives at the
// root, so it is LocalSample.
func (pe *GatherPE) CollectSample() []workload.Item { return pe.LocalSample() }

// LocalSample implements Sampler: the whole sample lives at the root, so
// the root returns everything and the other PEs return nothing. No
// communication, no virtual-time charge.
func (pe *GatherPE) LocalSample() []workload.Item {
	if pe.comm.Rank() != 0 {
		return nil
	}
	out := make([]workload.Item, len(pe.rootRes))
	for i, ki := range pe.rootRes {
		out[i] = ki.Item
	}
	return out
}

// SampleSize implements Sampler.
func (pe *GatherPE) SampleSize() int { return pe.size }

// Seen returns the global number of items processed so far.
func (pe *GatherPE) Seen() int64 { return pe.seen }

// Threshold implements Sampler.
func (pe *GatherPE) Threshold() (float64, bool) { return pe.thresh.V, pe.haveT }

// Timing implements Sampler.
func (pe *GatherPE) Timing() Timing { return pe.timing }

// Counters implements Sampler.
func (pe *GatherPE) Counters() Counters { return pe.counter }
