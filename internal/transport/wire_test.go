package transport

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// builtinValues covers every codec this package registers, including the
// adversarial float values the equivalence suite cares about (exponential
// keys produce denormals, and simnet/tcpnet parity demands bit-exact
// round-trips even for NaN payloads and negative zero).
func builtinValues() []any {
	return []any{
		int(0), int(1), int(-1), int(math.MaxInt64), int(math.MinInt64),
		float64(0), math.Copysign(0, -1), 1.5, -2.625e-300,
		math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead_beef0001),
		[]int{}, []int{0}, []int{1, -2, 3, math.MaxInt64, math.MinInt64},
	}
}

// wireEqual compares decoded values bit-exactly: reflect.DeepEqual treats
// NaN != NaN, which is precisely the case the codec must preserve.
func wireEqual(a, b any) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(af) == math.Float64bits(bf)
	}
	return reflect.DeepEqual(a, b)
}

// gobAgrees is the looser equality for cross-checking against
// encoding/gob, the reference codec, which legally erases two
// representation details the wire codec keeps: a nil slice decodes as
// empty, and gob's zero-field omission turns negative zero into positive
// zero. Values that differ only in those ways still count as agreeing.
func gobAgrees(a, b any) bool {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	if av.Kind() != bv.Kind() {
		return false
	}
	switch av.Kind() {
	case reflect.Float64:
		fa, fb := av.Float(), bv.Float()
		return fa == fb || math.Float64bits(fa) == math.Float64bits(fb)
	case reflect.Slice:
		if av.Len() != bv.Len() {
			return false
		}
		for i := 0; i < av.Len(); i++ {
			if !gobAgrees(av.Index(i).Interface(), bv.Index(i).Interface()) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a, b)
	}
}

func TestBuiltinRoundTrip(t *testing.T) {
	for _, v := range builtinValues() {
		got, err := DecodePayload(AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("%T %v: decode: %v", v, v, err)
		}
		if !wireEqual(got, v) {
			t.Fatalf("%T round trip: sent %v, got %v", v, v, got)
		}
	}
}

// viaGob round-trips v through encoding/gob, the reference codec the
// wire codecs are checked against, and returns the decoded value.
func viaGob(v any) (any, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	out := reflect.New(reflect.TypeOf(v))
	if err := gob.NewDecoder(&buf).Decode(out.Interface()); err != nil {
		return nil, err
	}
	return out.Elem().Interface(), nil
}

// TestWireMatchesGob is the cross-codec property test: the hand-rolled
// binary codec and encoding/gob must decode to identical values for the
// same payload, so a codec can never change what a receiver observes.
func TestWireMatchesGob(t *testing.T) {
	for _, v := range builtinValues() {
		fromWire, err := DecodePayload(AppendPayload(nil, v))
		if err != nil {
			t.Fatalf("%T: wire decode: %v", v, err)
		}
		fromGob, err := viaGob(v)
		if err != nil {
			t.Fatalf("%T: gob: %v", v, err)
		}
		if !gobAgrees(fromWire, fromGob) {
			t.Fatalf("%T: wire codec decoded %v, gob decoded %v", v, fromWire, fromGob)
		}
	}
}

// A payload type without a registered codec cannot be sent: encoding it
// panics at the send site and names the type.
func TestUnregisteredPayloadPanics(t *testing.T) {
	type coldControlMsg struct{ Name string }
	for _, v := range []any{coldControlMsg{Name: "rebalance"}, "a string", []float64{1}, nil} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			AppendPayload(nil, v)
			return "no panic"
		}()
		if !strings.Contains(msg, fmt.Sprintf("%T", v)) {
			t.Errorf("AppendPayload(%T): panic %q does not name the type", v, msg)
		}
	}
}

// Only assigned wire IDs decode: 0 (the leading byte of a retired gob
// body) and every other unassigned ID are rejected whatever follows.
func TestUnassignedWireIDsRejected(t *testing.T) {
	if wireByID[0] != nil {
		t.Fatal("wire ID 0 is assigned")
	}
	for id := 0; id < 256; id++ {
		if wireByID[id] != nil {
			continue
		}
		for _, body := range [][]byte{{byte(id)}, {byte(id), 0xFF, 0x00, 0x13}} {
			_, err := DecodePayload(body)
			if err == nil || !strings.Contains(err.Error(), "unknown wire codec ID") {
				t.Fatalf("body % x: want an unknown-ID error, got %v", body, err)
			}
		}
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	for _, v := range builtinValues() {
		body := AppendPayload(nil, v)
		if _, err := DecodePayload(append(body, 0x00)); err == nil {
			t.Fatalf("%T: trailing byte accepted", v)
		}
	}
}

// Every strict prefix of a valid body must fail cleanly — no panic, no
// partial value.
func TestTruncationRejected(t *testing.T) {
	for _, v := range builtinValues() {
		body := AppendPayload(nil, v)
		for n := 0; n < len(body); n++ {
			if _, err := DecodePayload(body[:n]); err == nil {
				// A prefix of a varint-coded slice can itself be a valid
				// shorter value only if it consumes every byte; Close
				// rejects everything else. A clean decode of a strict
				// prefix would mean the format is not self-delimiting.
				t.Fatalf("%T: %d-byte prefix of a %d-byte body decoded cleanly", v, n, len(body))
			}
		}
	}
}

// A length-lying header must be rejected before the decoder sizes an
// allocation from it: 10 bytes cannot claim a billion elements.
func TestLengthLyingHeaderRejected(t *testing.T) {
	body := []byte{WireIDIntSlice}
	body = AppendUvarint(body, 1<<40) // claims ~10^12 elements, carries none
	_, err := DecodePayload(body)
	if err == nil {
		t.Fatal("length-lying []int header accepted")
	}
	if !strings.Contains(err.Error(), "slice length") {
		t.Fatalf("expected a slice-length error, got: %v", err)
	}
	// And the rejection itself must be cheap: no speculative make() of
	// the claimed size. A handful of allocations covers the error values.
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = DecodePayload(body)
	})
	if allocs > 8 {
		t.Fatalf("rejecting a length-lying header cost %.0f allocations", allocs)
	}
}

func TestMalformedEnvelopes(t *testing.T) {
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"wire ID without a value", []byte{WireIDFloat64}},
		{"protocol v4 body", []byte{0x01, WireIDInt, 0x02}},
	}
	for _, tc := range cases {
		if _, err := DecodePayload(tc.body); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDecStrictBool(t *testing.T) {
	d := NewDec([]byte{2})
	d.Bool()
	if d.Err() == nil {
		t.Fatal("byte 2 accepted as a bool")
	}
}

func TestDecCloseRejectsTrailing(t *testing.T) {
	d := NewDec([]byte{1, 2})
	if d.U8() != 1 {
		t.Fatal("U8 misread")
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close accepted an unread byte")
	}
}

// Registration collisions are wiring bugs and must fail loudly at init.
func TestRegisterCollisionPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	// Panics fire before the registry mutates, so these probes leave the
	// real codec table untouched.
	mustPanic("duplicate ID", func() {
		RegisterMarshaler(WireIDInt,
			func(buf []byte, v uint16) []byte { return buf },
			func(d *Dec) (uint16, error) { return 0, nil })
	})
	mustPanic("reserved ID 0", func() {
		RegisterMarshaler(0,
			func(buf []byte, v uint16) []byte { return buf },
			func(d *Dec) (uint16, error) { return 0, nil })
	})
	mustPanic("duplicate type", func() {
		RegisterMarshaler(0xFE,
			func(buf []byte, v float64) []byte { return buf },
			func(d *Dec) (float64, error) { return 0, nil })
	})
}

// Byte strings decode into copies (frame buffers are pooled), validate
// their length against bytes present, and reject truncation.
func TestDecBytes(t *testing.T) {
	src := []byte("control-plane spec")
	enc := AppendBytes(AppendBytes(nil, src), nil)
	d := NewDec(enc)
	got := d.Bytes()
	if string(got) != string(src) {
		t.Fatalf("round trip: got %q want %q", got, src)
	}
	if empty := d.Bytes(); len(empty) != 0 || d.Err() != nil {
		t.Fatalf("empty string: got %q err %v", empty, d.Err())
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Mutating the decode buffer must not reach the returned copy.
	enc[1] ^= 0xFF
	if string(got) != string(src) {
		t.Fatal("Bytes aliased the decode buffer")
	}
	// A length claiming more bytes than remain fails before allocation.
	lying := AppendUvarint(nil, 1<<40)
	d = NewDec(lying)
	if d.Bytes(); d.Err() == nil {
		t.Fatal("length-lying byte string decoded")
	}
	for cut := 1; cut < len(AppendBytes(nil, src)); cut++ {
		d := NewDec(AppendBytes(nil, src)[:cut])
		if d.Bytes(); d.Err() == nil && d.Close() == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
}

// Snapshot framing: a u32 and a u64-prefixed blob round-trip, the blob
// aliases its input, a length past the end fails, and Fail keeps the
// first failure.
func TestDecSnapshotFraming(t *testing.T) {
	src := []byte("sampler state")
	enc := AppendBlob(AppendU32(nil, 0x5e5a3107), src)
	d := NewDec(enc)
	if v := d.U32(); v != 0x5e5a3107 {
		t.Fatalf("U32 = %#x", v)
	}
	got := d.Blob()
	if string(got) != string(src) || d.Close() != nil {
		t.Fatalf("round trip: got %q err %v", got, d.Close())
	}
	enc[len(enc)-1] ^= 0xFF
	if got[len(got)-1] != enc[len(enc)-1] {
		t.Fatal("Blob copied instead of aliasing its input")
	}
	d = NewDec(AppendU64(nil, 1<<40))
	if d.Blob(); d.Err() == nil {
		t.Fatal("length-lying blob decoded")
	}
	first := fmt.Errorf("first")
	d = NewDec(nil)
	d.Fail(first)
	d.Fail(fmt.Errorf("second"))
	if d.U32(); d.Err() != first {
		t.Fatalf("Err = %v, want the first failure", d.Err())
	}
}
