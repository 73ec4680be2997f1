package transport

import (
	"math"
	"testing"
)

// FuzzDecodePayload drives the payload decoder with hostile bodies. The
// decoder's contract under arbitrary input: return an error or a value —
// never panic, and never size an allocation from a length header the
// bytes present cannot back (PR 3's bar for every decoder in the repo).
// Values that do decode must re-encode and decode to the same thing.
func FuzzDecodePayload(f *testing.F) {
	// Valid bodies for every builtin codec, so mutation starts from
	// format-aware corpora rather than noise.
	f.Add(AppendPayload(nil, int(-12345)))
	f.Add(AppendPayload(nil, math.Copysign(0, -1)))
	f.Add(AppendPayload(nil, []int{1, -2, 1 << 40}))
	f.Add(AppendPayload(nil, 2.5))
	// Hostile shapes: length-lying header, unknown IDs, a bare ID, the
	// reserved ID 0 that began every retired gob body.
	f.Add(append([]byte{WireIDIntSlice}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F))
	f.Add([]byte{0xEE, 0x01})
	f.Add([]byte{WireIDIntSlice})
	f.Add([]byte{0x00, 0xFF, 0x00, 0x13})
	f.Add([]byte{0x7F, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := DecodePayload(data)
		if err != nil || v == nil {
			return
		}
		// Whatever decoded must survive a bit-exact round trip.
		v2, err := DecodePayload(AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("re-decoding %T failed: %v", v, err)
		}
		if !wireEqual(v, v2) {
			t.Fatalf("unstable round trip: %v became %v", v, v2)
		}
	})
}
