package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"testing"

	"reservoir/internal/rng"
	"reservoir/internal/stats"
	"reservoir/internal/workload"
)

// makeItems builds n items with IDs 0..n-1 and weights w(i).
func makeItems(n int, w func(i int) float64) workload.SliceBatch {
	items := make(workload.SliceBatch, n)
	for i := range items {
		items[i] = workload.Item{W: w(i), ID: uint64(i)}
	}
	return items
}

// inclusionCounts runs trials of sample() and returns per-item inclusion
// counts (item IDs must be 0..n-1).
func inclusionCounts(n, trials int, sample func(trial int) []workload.Item) []float64 {
	counts := make([]float64, n)
	for tr := 0; tr < trials; tr++ {
		for _, it := range sample(tr) {
			counts[it.ID]++
		}
	}
	return counts
}

// twoSampleChi compares two inclusion-count vectors with a two-sample
// chi-square test (valid because both experiments produce the same total
// count per trial).
func twoSampleChi(t *testing.T, name string, a, b []float64) {
	t.Helper()
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
		t.Fatalf("%s: degenerate chi-square", name)
	}
	p := stats.ChiSquareSurvival(stat, float64(df-1))
	if p < 1e-4 {
		t.Errorf("%s: distributions differ: chi2=%.1f df=%d p=%g", name, stat, df-1, p)
	}
}

func TestSeqWeightedBasics(t *testing.T) {
	s := NewSeqWeighted(5, rng.NewXoshiro256(1))
	items := makeItems(3, func(i int) float64 { return 1 })
	s.ProcessBatch(items)
	if got := len(s.Sample()); got != 3 {
		t.Fatalf("sample size %d before reservoir full, want 3", got)
	}
	if _, full := s.Threshold(); full {
		t.Fatal("threshold reported before k items seen")
	}
	s.ProcessBatch(makeItems(100, func(i int) float64 { return 1 }))
	if got := len(s.Sample()); got != 5 {
		t.Fatalf("sample size %d, want 5", got)
	}
	th, full := s.Threshold()
	if !full || math.IsInf(th, 1) {
		t.Fatal("threshold missing after reservoir full")
	}
	n, w := s.Seen()
	if n != 103 || math.Abs(w-103) > 1e-9 {
		t.Fatalf("seen = (%d, %v)", n, w)
	}
}

func TestSeqUniformMatchesExactProbability(t *testing.T) {
	// Uniform sampling without replacement: every item has inclusion
	// probability exactly k/n.
	n, k, trials := 60, 12, 4000
	counts := inclusionCounts(n, trials, func(tr int) []workload.Item {
		s := NewSeqUniform(k, rng.NewXoshiro256(uint64(tr)*2654435761+1))
		s.ProcessBatch(makeItems(n, func(i int) float64 { return 1 }))
		return s.Sample()
	})
	expected := make([]float64, n)
	for i := range expected {
		expected[i] = float64(trials) * float64(k) / float64(n)
	}
	_, p, err := stats.ChiSquare(counts, expected, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Errorf("uniform sequential sampler deviates from k/n inclusion: p = %g", p)
	}
}

func TestSeqWeightedMatchesOracle(t *testing.T) {
	// The exponential-jumps sampler must induce the same distribution as
	// the naive per-item-key oracle.
	n, k, trials := 40, 8, 4000
	weights := func(i int) float64 { return float64(i%5) + 0.5 }
	fast := inclusionCounts(n, trials, func(tr int) []workload.Item {
		s := NewSeqWeighted(k, rng.NewXoshiro256(uint64(tr)*31+7))
		s.ProcessBatch(makeItems(n, weights))
		return s.Sample()
	})
	oracle := inclusionCounts(n, trials, func(tr int) []workload.Item {
		s := NewNaiveOracle(k, true, rng.NewXoshiro256(uint64(tr)*97+13))
		s.ProcessBatch(makeItems(n, weights))
		return s.Sample()
	})
	twoSampleChi(t, "weighted-vs-oracle", fast, oracle)
}

func TestSeqWeightedFavorsHeavyItems(t *testing.T) {
	// One item with overwhelming weight must (almost) always be sampled.
	n, k, trials := 50, 5, 500
	heavy := 0
	for tr := 0; tr < trials; tr++ {
		s := NewSeqWeighted(k, rng.NewXoshiro256(uint64(tr)+1))
		s.ProcessBatch(makeItems(n, func(i int) float64 {
			if i == 17 {
				return 1e6
			}
			return 1
		}))
		for _, it := range s.Sample() {
			if it.ID == 17 {
				heavy++
			}
		}
	}
	if heavy < trials*99/100 {
		t.Errorf("heavy item sampled only %d/%d times", heavy, trials)
	}
}

func TestSeqUniformSkipJumpsAcrossBatches(t *testing.T) {
	// Batch-level jumping must agree with item-level processing in counts.
	k := 10
	a := NewSeqUniform(k, rng.NewXoshiro256(99))
	b := NewSeqUniform(k, rng.NewXoshiro256(99))
	items := makeItems(5000, func(i int) float64 { return 1 })
	// a: one big batch with jump processing; b: item by item.
	a.ProcessBatch(items)
	for _, it := range items {
		b.Process(it)
	}
	if a.Seen() != b.Seen() {
		t.Fatalf("seen mismatch: %d vs %d", a.Seen(), b.Seen())
	}
	// Same RNG consumption pattern implies identical samples.
	sa, sb := a.Sample(), b.Sample()
	mapA := map[uint64]bool{}
	for _, it := range sa {
		mapA[it.ID] = true
	}
	for _, it := range sb {
		if !mapA[it.ID] {
			t.Fatalf("samples diverge between batch and item processing")
		}
	}
}

func TestSeqSamplersSmallInputs(t *testing.T) {
	// n < k must return all items.
	s := NewSeqWeighted(10, rng.NewXoshiro256(1))
	s.ProcessBatch(makeItems(4, func(i int) float64 { return 1 }))
	if len(s.Sample()) != 4 {
		t.Error("weighted: sample != all items for n < k")
	}
	u := NewSeqUniform(10, rng.NewXoshiro256(1))
	u.ProcessBatch(makeItems(4, func(i int) float64 { return 1 }))
	if len(u.Sample()) != 4 {
		t.Error("uniform: sample != all items for n < k")
	}
	o := NewNaiveOracle(10, true, rng.NewXoshiro256(1))
	o.ProcessBatch(makeItems(4, func(i int) float64 { return 1 }))
	if len(o.Sample()) != 4 {
		t.Error("oracle: sample != all items for n < k")
	}
}

func TestSamplerPanicsOnBadK(t *testing.T) {
	for name, f := range map[string]func(){
		"weighted": func() { NewSeqWeighted(0, rng.NewXoshiro256(1)) },
		"uniform":  func() { NewSeqUniform(0, rng.NewXoshiro256(1)) },
		"oracle":   func() { NewNaiveOracle(0, true, rng.NewXoshiro256(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic for k=0", name)
				}
			}()
			f()
		}()
	}
}

func TestMaxHeapProperty(t *testing.T) {
	var h maxHeap
	src := rng.NewXoshiro256(5)
	for i := 0; i < 200; i++ {
		h.push(rng.U01(src), workload.Item{ID: uint64(i)})
	}
	// Repeatedly replacing the max with smaller keys must keep the root as
	// the maximum.
	for i := 0; i < 200; i++ {
		maxKey := h.keys[0]
		for _, k := range h.keys {
			if k > maxKey {
				t.Fatal("heap root is not the maximum")
			}
		}
		h.replaceMax(maxKey/2, workload.Item{ID: uint64(1000 + i)})
	}
}

// u01OneSource returns a xoshiro256** generator whose next U01 draw is
// exactly 1, the draw that gives a key of 0. Its next output is all ones,
// so s[1] = rotr(^0 · 9⁻¹, 7) · 5⁻¹ (inverses mod 2^64).
func u01OneSource(tb testing.TB) *rng.Xoshiro256 {
	tb.Helper()
	inv := func(a uint64) uint64 {
		x := a // correct to 3 bits for odd a; each Newton step doubles that
		for i := 0; i < 5; i++ {
			x *= 2 - a*x
		}
		return x
	}
	state := make([]byte, 32)
	binary.LittleEndian.PutUint64(state[8:], bits.RotateLeft64(^uint64(0)*inv(9), -7)*inv(5))
	var src rng.Xoshiro256
	if err := src.UnmarshalBinary(state); err != nil {
		tb.Fatal(err)
	}
	if probe := src; rng.U01(&probe) != 1 {
		tb.Fatal("crafted state does not draw U01 = 1")
	}
	return &src
}

// TestSeqWeightedZeroLargestKey: a k = 1 weighted sampler whose only key is
// 0 has threshold 0, which no later key can beat. Its skip must be
// infinite, across a snapshot too, instead of an Exp(0) panic.
func TestSeqWeightedZeroLargestKey(t *testing.T) {
	s := NewSeqWeighted(1, u01OneSource(t))
	first := workload.Item{W: 1, ID: 1}
	s.Process(first)
	if th, full := s.Threshold(); !full || th != 0 {
		t.Fatalf("threshold %v (full %v), want 0", th, full)
	}
	s.ProcessBatch(makeItems(1000, func(i int) float64 { return float64(i + 1) }))
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back SeqWeighted
	if err := back.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	back.ProcessBatch(makeItems(1000, func(i int) float64 { return 1e9 }))
	for _, smp := range [][]workload.Item{s.Sample(), back.Sample()} {
		if len(smp) != 1 || smp[0] != first {
			t.Fatalf("sample %v, want only %v", smp, first)
		}
	}
}
