package workload

import (
	"math"
	"testing"

	"reservoir/internal/stats"
)

func TestSliceBatch(t *testing.T) {
	b := SliceBatch{{W: 1, ID: 10}, {W: 2, ID: 11}}
	if b.Len() != 2 || b.At(1).W != 2 || b.At(0).ID != 10 {
		t.Fatalf("SliceBatch accessors broken: %+v", b)
	}
}

func TestSynthBatchDeterministic(t *testing.T) {
	b := &SynthBatch{N: 100, IDBase: 1 << 30, W: UniformWeight(1, 0, 100)}
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		a1, a2 := b.At(i), b.At(i)
		if a1 != a2 {
			t.Fatalf("item %d not deterministic", i)
		}
		if a1.ID != uint64(1<<30)+uint64(i) {
			t.Fatalf("item %d has ID %d", i, a1.ID)
		}
	}
}

func TestUniformWeightRangeAndMean(t *testing.T) {
	w := UniformWeight(7, 0, 100)
	var acc stats.Welford
	for i := uint64(0); i < 100000; i++ {
		v := w(i)
		if !(v > 0 && v <= 100) {
			t.Fatalf("weight out of (0,100]: %v", v)
		}
		acc.Add(v)
	}
	if math.Abs(acc.Mean()-50) > 1 {
		t.Errorf("uniform weight mean = %v, want ~50", acc.Mean())
	}
}

func TestNormalWeightMoments(t *testing.T) {
	w := NormalWeight(9, 40, 5, 1e-9)
	var acc stats.Welford
	for i := uint64(0); i < 100000; i++ {
		v := w(i)
		if v <= 0 {
			t.Fatalf("non-positive weight %v", v)
		}
		acc.Add(v)
	}
	if math.Abs(acc.Mean()-40) > 0.5 {
		t.Errorf("normal weight mean = %v, want ~40", acc.Mean())
	}
	if math.Abs(acc.StdDev()-5) > 0.3 {
		t.Errorf("normal weight sd = %v, want ~5", acc.StdDev())
	}
}

func TestNormalWeightFloor(t *testing.T) {
	w := NormalWeight(9, 0, 1, 0.5)
	for i := uint64(0); i < 10000; i++ {
		if w(i) < 0.5 {
			t.Fatalf("floor violated at %d", i)
		}
	}
}

func TestParetoWeightTail(t *testing.T) {
	w := ParetoWeight(11, 1.5)
	over := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		v := w(i)
		if v < 1 {
			t.Fatalf("Pareto weight below 1: %v", v)
		}
		if v > 4 {
			over++
		}
	}
	// P[X > 4] = 4^-1.5 = 0.125.
	got := float64(over) / n
	if math.Abs(got-0.125) > 0.01 {
		t.Errorf("Pareto tail = %v, want ~0.125", got)
	}
}

func TestSourcesProduceDistinctIDs(t *testing.T) {
	src := UniformSource{Seed: 1, BatchLen: 50, Lo: 0, Hi: 100}
	seen := map[uint64]bool{}
	for pe := 0; pe < 4; pe++ {
		for round := 0; round < 4; round++ {
			b := src.NextBatch(pe, round)
			for i := 0; i < b.Len(); i++ {
				id := b.At(i).ID
				if seen[id] {
					t.Fatalf("duplicate ID %d (pe=%d round=%d i=%d)", id, pe, round, i)
				}
				seen[id] = true
			}
		}
	}
}

func TestSourcesDeterministicAcrossCalls(t *testing.T) {
	for _, src := range []Source{
		UniformSource{Seed: 5, BatchLen: 20, Lo: 0, Hi: 10},
		SkewedSource{Seed: 5, BatchLen: 20, BaseMean: 10, RoundInc: 1, RankInc: 2, SD: 3},
		ParetoSource{Seed: 5, BatchLen: 20, Shape: 2},
	} {
		a := Materialize(src.NextBatch(3, 7))
		b := Materialize(src.NextBatch(3, 7))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T not deterministic at %d", src, i)
			}
		}
	}
}

func TestSkewedSourceMeanGrowth(t *testing.T) {
	src := SkewedSource{Seed: 1, BatchLen: 20000, BaseMean: 10, RoundInc: 5, RankInc: 2, SD: 1}
	meanOf := func(pe, round int) float64 {
		b := src.NextBatch(pe, round)
		var acc stats.Welford
		for i := 0; i < b.Len(); i++ {
			acc.Add(b.At(i).W)
		}
		return acc.Mean()
	}
	m00 := meanOf(0, 0)
	m04 := meanOf(0, 4)
	m30 := meanOf(3, 0)
	if math.Abs(m00-10) > 0.5 {
		t.Errorf("base mean = %v, want ~10", m00)
	}
	if math.Abs(m04-30) > 0.5 {
		t.Errorf("round-4 mean = %v, want ~30", m04)
	}
	if math.Abs(m30-16) > 0.5 {
		t.Errorf("rank-3 mean = %v, want ~16", m30)
	}
}

func TestMaterialize(t *testing.T) {
	b := &SynthBatch{N: 10, IDBase: 0, W: UniformWeight(3, 1, 2)}
	m := Materialize(b)
	if m.Len() != 10 {
		t.Fatalf("materialized length %d", m.Len())
	}
	for i := 0; i < 10; i++ {
		if m.At(i) != b.At(i) {
			t.Fatalf("materialized item %d differs", i)
		}
	}
}

// FillWeights must agree exactly with Batch.At for every batch kind — the
// skip scans read weights through it while inserts still go through At,
// and any divergence would silently corrupt the sample. FillWeightsFrom
// is checked at an odd offset and at lengths that run every unroll tail.
func TestFillWeightsMatchesAt(t *testing.T) {
	batches := map[string]Batch{
		"slice": SliceBatch{{W: 1.5, ID: 1}, {W: -0.0, ID: 2}, {W: 3, ID: 3}},
		"uniform-bulk": UniformSource{Seed: 7, BatchLen: 1000, Lo: 0, Hi: 100}.
			NextBatch(2, 5),
		"skewed": SkewedSource{Seed: 7, BatchLen: 1000, BaseMean: 10, RoundInc: 1, RankInc: 2, SD: 3}.
			NextBatch(2, 5),
		"skewed-floor": SkewedSource{Seed: 8, BatchLen: 1000, BaseMean: 0, SD: 1}.
			NextBatch(1, 0),
		"pareto": ParetoSource{Seed: 7, BatchLen: 1000, Shape: 1.5}.
			NextBatch(2, 5),
		"synth-no-bulk": &SynthBatch{N: 500, W: UniformWeight(9, 1, 2)},
	}
	for name, b := range batches {
		dst := make([]float64, b.Len())
		FillWeights(b, dst)
		for i := range dst {
			if got, want := dst[i], b.At(i).W; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: weight %d = %v via FillWeights, %v via At", name, i, got, want)
			}
		}
		for _, lo := range []int{0, 1} {
			for _, n := range []int{0, 1, 3, 4, 5, b.Len() - lo} {
				if lo+n > b.Len() {
					continue
				}
				dst := make([]float64, n)
				FillWeightsFrom(b, lo, dst)
				for j := range dst {
					if got, want := dst[j], b.At(lo+j).W; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: weight %d = %v via FillWeightsFrom(lo=%d, n=%d), %v via At", name, lo+j, got, lo, n, want)
					}
				}
			}
		}
	}
}
