package core

import (
	"math"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// maxHeap is a binary max-heap over (key, item) pairs, the classic
// sequential reservoir representation: the root is the threshold item that
// the next accepted item replaces.
type maxHeap struct {
	keys  []float64
	items []workload.Item
}

func (h *maxHeap) len() int { return len(h.keys) }

func (h *maxHeap) push(key float64, it workload.Item) {
	h.keys = append(h.keys, key)
	h.items = append(h.items, it)
	i := len(h.keys) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.keys[parent] >= h.keys[i] {
			break
		}
		h.swap(parent, i)
		i = parent
	}
}

// replaceMax overwrites the maximum with (key, it) and restores heap order.
func (h *maxHeap) replaceMax(key float64, it workload.Item) {
	h.keys[0] = key
	h.items[0] = it
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h.keys) && h.keys[l] > h.keys[largest] {
			largest = l
		}
		if r < len(h.keys) && h.keys[r] > h.keys[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		h.swap(i, largest)
		i = largest
	}
}

func (h *maxHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.items[i], h.items[j] = h.items[j], h.items[i]
}

// SeqWeighted is the sequential weighted reservoir sampler of Sec 4.1:
// exponential keys vi = -ln(rand())/wi, with the exponential-jumps skip
// technique — the amount of weight skipped between insertions is an
// exponential variate with rate T (the largest key in the reservoir), and
// an accepted item's key is drawn from (0, T) via vj = -ln(rand(e^{-T wj},
// 1))/wj.
type SeqWeighted struct {
	k    int
	src  rng.Source
	h    maxHeap
	x    float64 // remaining weight to skip before the next insertion
	n    int64   // items seen
	wSum float64 // total weight seen
}

// NewSeqWeighted returns a sequential weighted sampler with sample size k.
func NewSeqWeighted(k int, src rng.Source) *SeqWeighted {
	if k < 1 {
		panic("core: sample size must be >= 1")
	}
	return &SeqWeighted{k: k, src: src}
}

// Process feeds one item; its weight must be strictly positive.
func (s *SeqWeighted) Process(it workload.Item) {
	s.n++
	s.wSum += it.W
	if s.h.len() < s.k {
		s.h.push(rng.Exponential(s.src, it.W), it)
		if s.h.len() == s.k {
			s.x = skipWeight(s.src, s.h.keys[0])
		}
		return
	}
	s.x -= it.W
	if s.x > 0 {
		return
	}
	t := s.h.keys[0]
	xlo := math.Exp(-t * it.W)
	v := -math.Log(rng.Uniform(s.src, xlo, 1)) / it.W
	s.h.replaceMax(v, it)
	s.x = skipWeight(s.src, s.h.keys[0])
}

// ProcessBatch feeds a whole mini-batch.
func (s *SeqWeighted) ProcessBatch(b workload.Batch) {
	for i := 0; i < b.Len(); i++ {
		s.Process(b.At(i))
	}
}

// Sample returns the current sample (at most k items, in no particular
// order). The returned slice is freshly allocated.
func (s *SeqWeighted) Sample() []workload.Item {
	return append([]workload.Item(nil), s.h.items...)
}

// Threshold returns the current key threshold T (the largest key in the
// reservoir) and whether the reservoir is full.
func (s *SeqWeighted) Threshold() (float64, bool) {
	if s.h.len() < s.k {
		return math.Inf(1), false
	}
	return s.h.keys[0], true
}

// Seen returns the number of items and total weight processed.
func (s *SeqWeighted) Seen() (int64, float64) { return s.n, s.wSum }

// SeqUniform is the sequential uniform reservoir sampler of Sec 4.3
// (Devroye's geometric jumps): keys are uniform variates, the number of
// items skipped between insertions is geometric with success probability T,
// and an accepted item's key is rand()·T.
type SeqUniform struct {
	k    int
	src  rng.Source
	h    maxHeap
	skip int // items left to skip before the next insertion
	n    int64
}

// NewSeqUniform returns a sequential uniform sampler with sample size k.
func NewSeqUniform(k int, src rng.Source) *SeqUniform {
	if k < 1 {
		panic("core: sample size must be >= 1")
	}
	return &SeqUniform{k: k, src: src}
}

// Process feeds one item.
func (s *SeqUniform) Process(it workload.Item) {
	s.n++
	if s.h.len() < s.k {
		s.h.push(rng.U01(s.src), it)
		if s.h.len() == s.k {
			s.skip = rng.GeometricSkip(s.src, s.h.keys[0])
		}
		return
	}
	if s.skip > 0 {
		s.skip--
		return
	}
	v := rng.U01CO(s.src) * s.h.keys[0]
	s.h.replaceMax(v, it)
	s.skip = rng.GeometricSkip(s.src, s.h.keys[0])
}

// ProcessBatch feeds a whole mini-batch, jumping over skipped items in
// O(1) per skip (the uniform sampler never needs to touch skipped items).
func (s *SeqUniform) ProcessBatch(b workload.Batch) {
	n := b.Len()
	i := 0
	// Fill phase.
	for ; i < n && s.h.len() < s.k; i++ {
		s.Process(b.At(i))
	}
	for i < n {
		if s.skip >= n-i {
			s.skip -= n - i
			s.n += int64(n - i)
			return
		}
		i += s.skip
		s.n += int64(s.skip)
		s.skip = 0
		s.Process(b.At(i))
		i++
	}
}

// Sample returns the current sample.
func (s *SeqUniform) Sample() []workload.Item {
	return append([]workload.Item(nil), s.h.items...)
}

// Threshold returns the current key threshold and whether the reservoir is
// full.
func (s *SeqUniform) Threshold() (float64, bool) {
	if s.h.len() < s.k {
		return math.Inf(1), false
	}
	return s.h.keys[0], true
}

// Seen returns the number of items processed.
func (s *SeqUniform) Seen() int64 { return s.n }

// NaiveOracle is the distributional ground truth: it draws an explicit key
// for every item (exponential with rate wi for weighted sampling, uniform
// for unweighted) and keeps the k items with the smallest keys. It is the
// textbook "sampling by sorting random variates" method of Sec 3.1, without
// any skipping — O(n log k), used by tests to validate the fast samplers.
type NaiveOracle struct {
	k        int
	weighted bool
	src      rng.Source
	h        maxHeap
}

// NewNaiveOracle returns an oracle sampler.
func NewNaiveOracle(k int, weighted bool, src rng.Source) *NaiveOracle {
	if k < 1 {
		panic("core: sample size must be >= 1")
	}
	return &NaiveOracle{k: k, weighted: weighted, src: src}
}

// Process feeds one item.
func (o *NaiveOracle) Process(it workload.Item) {
	var v float64
	if o.weighted {
		v = rng.Exponential(o.src, it.W)
	} else {
		v = rng.U01(o.src)
	}
	if o.h.len() < o.k {
		o.h.push(v, it)
	} else if v < o.h.keys[0] {
		o.h.replaceMax(v, it)
	}
}

// ProcessBatch feeds a whole mini-batch.
func (o *NaiveOracle) ProcessBatch(b workload.Batch) {
	for i := 0; i < b.Len(); i++ {
		o.Process(b.At(i))
	}
}

// Sample returns the current sample.
func (o *NaiveOracle) Sample() []workload.Item {
	return append([]workload.Item(nil), o.h.items...)
}
