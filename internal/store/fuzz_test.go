package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot hammers the snapshot frame decoder: damaged input
// must return an error (never panic), and accepted input must re-encode
// bit-identically.
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
