package core

import (
	"bytes"
	"math"
	"testing"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// seqSnapshotSeeds produces valid snapshots of both sequential samplers in
// a few states (empty, partially filled, past the threshold, and the
// extremes below), used as the in-code fuzz seed corpus alongside the
// files under testdata/fuzz.
func seqSnapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	marshalW := func(s *SeqWeighted) {
		b, err := s.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	addW := func(k, n int) {
		s := NewSeqWeighted(k, rng.NewXoshiro256(7))
		for i := 0; i < n; i++ {
			s.Process(workload.Item{W: float64(i%13) + 0.5, ID: uint64(i)})
		}
		marshalW(s)
	}
	addU := func(k, n int) {
		s := NewSeqUniform(k, rng.NewXoshiro256(9))
		for i := 0; i < n; i++ {
			s.Process(workload.Item{W: 1, ID: uint64(i)})
		}
		b, err := s.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	addW(8, 0)
	addW(8, 100)
	addW(64, 30)
	addU(8, 0)
	addU(8, 100)

	// zero-key: a k = 1 weighted sampler whose only key is 0, so its
	// threshold is 0 and its skip infinite.
	zero := NewSeqWeighted(1, u01OneSource(tb))
	zero.Process(workload.Item{W: 1, ID: 1})
	zero.ProcessBatch(makeItems(1000, func(i int) float64 { return float64(i + 1) }))
	marshalW(zero)

	// subnormal: 1,000 items of weight 5e-324, whose keys and so whose
	// threshold are +Inf.
	sub := NewSeqWeighted(4, rng.NewXoshiro256(1))
	sub.ProcessBatch(makeItems(1000, func(int) float64 { return 5e-324 }))
	if th, full := sub.Threshold(); !full || !math.IsInf(th, 1) {
		tb.Fatalf("subnormal seed: threshold %v (full %v), want +Inf", th, full)
	}
	marshalW(sub)
	return seeds
}

// FuzzUnmarshalSeq hammers both sequential samplers' snapshot decoders
// with arbitrary bytes: truncated, bit-flipped, and length-lying inputs must
// return an error — never panic and never allocate beyond what the input
// length can justify. A successfully decoded snapshot must re-marshal
// bit-identically (decode is the inverse of encode on its image), and
// the restored sampler must take one more batch without panicking.
func FuzzUnmarshalSeq(f *testing.F) {
	for _, s := range seqSnapshotSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
	}
	batch := makeItems(16, func(i int) float64 { return float64(i%5) + 0.5 })
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for _, s := range []interface {
			MarshalBinary() ([]byte, error)
			UnmarshalBinary([]byte) error
			ProcessBatch(workload.Batch)
			Sample() []workload.Item
		}{new(SeqWeighted), new(SeqUniform)} {
			if err := s.UnmarshalBinary(data); err != nil {
				continue
			}
			out, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("re-marshal of accepted %T snapshot failed: %v", s, err)
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("%T snapshot does not round-trip (%d vs %d bytes)", s, len(out), len(data))
			}
			s.ProcessBatch(batch)
			s.Sample()
		}
	})
}
