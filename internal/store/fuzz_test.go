package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecords hammers the WAL segment scanner: arbitrary bytes —
// including truncated frames, bit flips, and length-lying headers — must
// never panic, never over-allocate, and never yield a record that does not
// re-encode to the exact frame bytes it was decoded from.
func FuzzDecodeRecords(f *testing.F) {
	var seg []byte
	seg = append(seg, EncodeRecord(mkRecord(0, 3, 4))...)
	seg = append(seg, EncodeRecord(&RoundRecord{Round: 1, Synthetic: []byte(`{"batch_len":50,"rounds":2}`)})...)
	seg = append(seg, EncodeRecord(mkRecord(2, 1, 0))...)
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)/4] ^= 0x80
	f.Add(flipped)
	lying := append([]byte(nil), EncodeRecord(mkRecord(9, 1, 1))...)
	lying[6], lying[7], lying[8], lying[9] = 0xff, 0xff, 0xff, 0x7f
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		recs, consumed, err := DecodeRecords(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if err != nil {
			return
		}
		// The accepted prefix must be exactly the concatenation of the
		// re-encoded records (decode inverts encode on its image).
		var re []byte
		for _, r := range recs {
			re = append(re, EncodeRecord(r)...)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("decoded records do not re-encode to the accepted prefix (%d vs %d bytes)", len(re), consumed)
		}
	})
}

// FuzzDecodeSnapshot hammers the snapshot file decoder with the same
// contract: error (never panic) on damaged input, exact round-trip on
// accepted input.
func FuzzDecodeSnapshot(f *testing.F) {
	blob := EncodeSnapshot(&Snapshot{Round: 12, Kind: 1, Blob: bytes.Repeat([]byte{0xAB, 1, 2, 3}, 40)})
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	flipped := append([]byte(nil), blob...)
	flipped[9] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeSnapshot(s), data) {
			t.Fatal("accepted snapshot does not re-encode bit-identically")
		}
		// A boundary slot may carry a stale tail after the frame.
		p, err := decodeSnapshotPrefix(append(append([]byte(nil), data...), data...))
		if err != nil || p.Round != s.Round || p.Kind != s.Kind || !bytes.Equal(p.Blob, s.Blob) {
			t.Fatalf("frame with a trailing tail decodes as %+v, %v", p, err)
		}
	})
}
