package core

import (
	"testing"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

func TestWeightedSnapshotResumesBitIdentical(t *testing.T) {
	orig := NewSeqWeighted(16, rng.NewXoshiro256(5))
	items := makeItems(5000, func(i int) float64 { return float64(i%9) + 0.5 })
	half := items[:2500]
	rest := items[2500:]
	orig.ProcessBatch(half)

	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSeqWeighted(1, rng.NewXoshiro256(999))
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}

	orig.ProcessBatch(rest)
	restored.ProcessBatch(rest)

	a, b := orig.Sample(), restored.Sample()
	if len(a) != len(b) {
		t.Fatalf("sample sizes differ: %d vs %d", len(a), len(b))
	}
	inA := map[uint64]bool{}
	for _, it := range a {
		inA[it.ID] = true
	}
	for _, it := range b {
		if !inA[it.ID] {
			t.Fatalf("restored run diverged: item %d not in original sample", it.ID)
		}
	}
	na, wa := orig.Seen()
	nb, wb := restored.Seen()
	if na != nb || wa != wb {
		t.Fatalf("seen counters diverged: (%d,%v) vs (%d,%v)", na, wa, nb, wb)
	}
	ta, _ := orig.Threshold()
	tb, _ := restored.Threshold()
	if ta != tb {
		t.Fatalf("thresholds diverged: %v vs %v", ta, tb)
	}
}

func TestUniformSnapshotResumesBitIdentical(t *testing.T) {
	orig := NewSeqUniform(10, rng.NewXoshiro256(7))
	items := makeItems(4000, func(i int) float64 { return 1 })
	orig.ProcessBatch(items[:1000])

	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSeqUniform(3, rng.NewXoshiro256(1))
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	orig.ProcessBatch(items[1000:])
	restored.ProcessBatch(items[1000:])
	if orig.Seen() != restored.Seen() {
		t.Fatalf("seen diverged: %d vs %d", orig.Seen(), restored.Seen())
	}
	a, b := orig.Sample(), restored.Sample()
	inA := map[uint64]bool{}
	for _, it := range a {
		inA[it.ID] = true
	}
	for _, it := range b {
		if !inA[it.ID] {
			t.Fatalf("restored uniform run diverged at item %d", it.ID)
		}
	}
}

func TestSnapshotBeforeReservoirFull(t *testing.T) {
	s := NewSeqWeighted(100, rng.NewXoshiro256(11))
	s.ProcessBatch(makeItems(10, func(i int) float64 { return 1 }))
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := NewSeqWeighted(1, rng.NewXoshiro256(1))
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if len(r.Sample()) != 10 {
		t.Fatalf("restored partial reservoir has %d items", len(r.Sample()))
	}
}

func TestSnapshotRejectsCorruptInput(t *testing.T) {
	s := NewSeqWeighted(8, rng.NewXoshiro256(3))
	s.ProcessBatch(makeItems(100, func(i int) float64 { return 1 }))
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{1, 2, 3, 4}, blob[4:]...),
		"truncated":   blob[:len(blob)/2],
		"wrong kind":  mutate(blob, 5, kindUniform),
		"bad version": mutate(blob, 4, 99),
		"rng chopped": blob[:len(blob)-8],
	}
	for name, data := range cases {
		r := NewSeqWeighted(1, rng.NewXoshiro256(1))
		if err := r.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
	}
	// Kind mismatch in the other direction.
	u := NewSeqUniform(1, rng.NewXoshiro256(1))
	if err := u.UnmarshalBinary(blob); err == nil {
		t.Error("uniform sampler accepted weighted snapshot")
	}
}

func TestSnapshotRequiresSerializableRNG(t *testing.T) {
	s := NewSeqWeighted(4, rng.NewSplitMix64(1)) // splitmix has no marshaler
	s.Process(workload.Item{W: 1, ID: 1})
	if _, err := s.MarshalBinary(); err == nil {
		t.Fatal("expected error for non-serializable RNG")
	}
}

func mutate(b []byte, pos int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[pos] = v
	return out
}

func TestXoshiroRoundTrip(t *testing.T) {
	x := rng.NewXoshiro256(123)
	for i := 0; i < 100; i++ {
		x.Uint64()
	}
	blob, err := x.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	y := rng.NewXoshiro256(1)
	if err := y.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if x.Uint64() != y.Uint64() {
			t.Fatalf("restored xoshiro diverged at step %d", i)
		}
	}
	if err := y.UnmarshalBinary(make([]byte, 31)); err == nil {
		t.Error("short state accepted")
	}
	if err := y.UnmarshalBinary(make([]byte, 32)); err == nil {
		t.Error("all-zero state accepted")
	}
}
