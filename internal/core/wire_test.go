package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"strings"
	"testing"

	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// hotPayloads is one value per hot-path codec this package registers —
// including the float corner cases (denormal keys from exponential
// draws, negative zero) where bit-exactness decides simnet/tcpnet
// sample equivalence.
func hotPayloads() []any {
	negZero := math.Copysign(0, -1)
	return []any{
		btree.Key{V: 2.5e-312, ID: 1<<64 - 1}, // denormal V
		[]btree.Key{},
		[]btree.Key{{V: negZero, ID: 0}, {V: 1.5, ID: 42}},
		[]workload.Item{{W: 0.125, ID: 7}},
		[]coll.Chunk[workload.Item]{
			{Src: 0, Items: []workload.Item{{W: 1, ID: 1}, {W: 2, ID: 2}}},
			{Src: 3, Items: nil},
		},
		[]coll.Chunk[btree.Key]{{Src: 2, Items: []btree.Key{{V: 9, ID: 9}}}},
		[]coll.Chunk[keyedItem]{{Src: 1, Items: []keyedItem{
			{Key: btree.Key{V: 0.5, ID: 5}, Item: workload.Item{W: 3, ID: 5}},
		}}},
		threshMsg{T: btree.Key{V: 0.75, ID: 12}, Have: true, Size: -1},
	}
}

func TestHotPayloadRoundTrip(t *testing.T) {
	for _, v := range hotPayloads() {
		got, err := transport.DecodePayload(transport.AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("%T: decode: %v", v, err)
		}
		if !payloadEqual(got, v) {
			t.Fatalf("%T round trip: sent %+v, got %+v", v, v, got)
		}
	}
}

// The cross-codec property: for every hot type, the binary codec and
// encoding/gob (the reference codec) must decode to the same value, so a
// hand-rolled codec is invisible to receivers.
func TestHotPayloadMatchesGob(t *testing.T) {
	for _, v := range hotPayloads() {
		fromWire, err := transport.DecodePayload(transport.AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("%T: wire decode: %v", v, err)
		}
		var gb bytes.Buffer
		if err := gob.NewEncoder(&gb).Encode(v); err != nil {
			t.Fatalf("%T: gob encode: %v", v, err)
		}
		out := reflect.New(reflect.TypeOf(v))
		if err := gob.NewDecoder(&gb).Decode(out.Interface()); err != nil {
			t.Fatalf("%T: gob decode: %v", v, err)
		}
		fromGob := out.Elem().Interface()
		if !payloadAgrees(fromWire, fromGob) {
			t.Fatalf("%T: wire decoded %+v, gob decoded %+v", v, fromWire, fromGob)
		}
	}
}

// payloadEqual is DeepEqual modulo one codec-irrelevant representation
// choice — a nil slice equals an empty one — while floats compare on
// bits, so -0 and NaN round-trips count (plain == and DeepEqual each
// get one of those wrong).
func payloadEqual(a, b any) bool {
	return payloadEqualValue(reflect.ValueOf(a), reflect.ValueOf(b), true)
}

// payloadAgrees additionally lets -0 equal +0: gob's zero-field
// omission erases the sign of a negative-zero struct field (it encodes
// nothing and the decoder leaves +0), which the bit-exact wire codec
// deliberately does not replicate.
func payloadAgrees(a, b any) bool {
	return payloadEqualValue(reflect.ValueOf(a), reflect.ValueOf(b), false)
}

func payloadEqualValue(a, b reflect.Value, bits bool) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		if !bits && a.Float() == b.Float() {
			return true
		}
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !payloadEqualValue(a.Index(i), b.Index(i), bits) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.Type() != b.Type() {
			return false
		}
		for i := 0; i < a.NumField(); i++ {
			if !payloadEqualValue(a.Field(i), b.Field(i), bits) {
				return false
			}
		}
		return true
	case reflect.Interface:
		return payloadEqualValue(a.Elem(), b.Elem(), bits)
	default:
		return a.Interface() == b.Interface()
	}
}

// Truncations of every hot payload must be rejected: the formats are
// self-delimiting and a partial gather chunk must never decode into a
// shorter-but-plausible value.
func TestHotPayloadTruncationRejected(t *testing.T) {
	for _, v := range hotPayloads() {
		body := transport.AppendPayload(nil, v)
		for n := 0; n < len(body); n++ {
			if _, err := transport.DecodePayload(body[:n]); err == nil {
				t.Fatalf("%T: %d-byte prefix of a %d-byte body decoded cleanly", v, n, len(body))
			}
		}
	}
}

// A chunk header claiming more elements than its frame carries must fail
// in Dec.Len, before the decoder allocates.
func TestChunkLengthLyingRejected(t *testing.T) {
	body := []byte{transport.WireIDKeyChunks}
	body = transport.AppendUvarint(body, 1)        // one chunk
	body = transport.AppendUvarint(body, 0)        // src 0
	body = transport.AppendUvarint(body, 1<<40)    // claims ~10^12 keys
	body = transport.AppendU64(body, 0x3FF0000000) // ...backed by 8 bytes
	if _, err := transport.DecodePayload(body); err == nil {
		t.Fatal("length-lying key chunk accepted")
	}
}

// The retired wire IDs stay unassigned with every sampler codec linked
// in: 15 and 16 (the per-family stats reductions), 18 and 19 (the
// AllGather size chunks and rank table).
func TestRetiredWireIDsRejected(t *testing.T) {
	for _, id := range []byte{15, 16, 18, 19} {
		_, err := transport.DecodePayload([]byte{id, 0x01, 0x00})
		if err == nil || !strings.Contains(err.Error(), "unknown wire codec ID") {
			t.Errorf("wire ID %d: want an unknown-ID error, got %v", id, err)
		}
	}
}

// FuzzDecodeHotPayloads re-runs the transport fuzz contract with every
// sampler codec registered: arbitrary bodies may error but never panic
// or over-allocate, and whatever decodes must round-trip stably.
func FuzzDecodeHotPayloads(f *testing.F) {
	for _, v := range hotPayloads() {
		f.Add(transport.AppendPayload(nil, v))
	}
	f.Add(append([]byte{transport.WireIDKeyedItemChunks}, 0xFF, 0xFF, 0xFF, 0x7F))
	// A counters body as the retired wire ID 15 carried it: the ID is
	// unassigned now, so this and its mutations must fail cleanly.
	retired := []byte{15}
	for c := int64(1); c <= 6; c++ {
		retired = transport.AppendVarint(retired, c)
	}
	f.Add(retired)
	// Bodies as the retired IDs 18 and 19 carried them (the AllGather
	// size chunks and rank table): one chunk from rank 0, one row, each
	// holding the size 2.
	f.Add([]byte{18, 0x01, 0x00, 0x01, 0x04})
	f.Add([]byte{19, 0x01, 0x01, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := transport.DecodePayload(data)
		if err != nil || v == nil {
			return
		}
		v2, err := transport.DecodePayload(transport.AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("re-decoding %T failed: %v", v, err)
		}
		if !payloadEqual(v, v2) {
			t.Fatalf("unstable round trip: %+v became %+v", v, v2)
		}
	})
}
