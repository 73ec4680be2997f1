package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
)

// This file is the wire codec: the one payload encoding of every wire
// transport. Each payload type that crosses a wire transport registers a
// hand-rolled binary codec under a static wire ID, and every encoded body
// is
//
//	wire ID (1 byte) | that codec's binary encoding of the value
//
// Wire ID 0 is never assigned, so a body from the retired gob encoding
// (which began with a 0x00 discriminator) fails to decode as an unknown
// ID. Sending an unregistered type is a programming error: AppendPayload
// panics at the send site, naming the type.
//
// Wire IDs are assigned statically in the constant block below — across
// packages — so every process of a cluster agrees on the mapping
// regardless of package init order or which packages are linked in.
// Codecs are registered from package init functions only; the registry
// is read-only after program start, so lookups take no locks.
//
// Encodings use little-endian fixed-width words for floats and raw
// 64-bit fields, and varints (unsigned, or zigzag for signed values)
// for counts and ranks. Decoders run against hostile input: a slice
// length is validated against the bytes actually present before any
// allocation (a 10-byte frame cannot claim a billion elements), and
// trailing bytes after a complete value are rejected.

// MaxPayloadBytes caps one encoded message body, wire ID included. Wire
// transports refuse larger messages.
const MaxPayloadBytes = 1 << 30

// maxNestedPayloads bounds envelope-in-envelope recursion during decode
// so a hostile frame cannot drive DecodePayload arbitrarily deep.
const maxNestedPayloads = 4

// Static wire-ID assignments. IDs live here, not in the registering
// packages, so the full mapping is auditable in one place and two
// packages can never collide silently. ID 0 is reserved (never
// assigned); IDs 15 and 16 (the retired per-family stats reductions) and
// 18 and 19 (the retired AllGather's size chunks and rank table) stay
// unassigned like it, so an old body carrying them fails to decode.
const (
	// Registered by this package (builtins).
	WireIDInt      uint8 = 1 // int: zigzag varint
	WireIDFloat64  uint8 = 2 // float64: 8-byte LE bits
	WireIDIntSlice uint8 = 3 // []int: uvarint count, zigzag varints

	// Registered by internal/core (and the root package) for the
	// sampler hot path.
	WireIDKey             uint8 = 8  // btree.Key
	WireIDKeySlice        uint8 = 9  // []btree.Key
	WireIDItemSlice       uint8 = 10 // []workload.Item
	WireIDItemChunks      uint8 = 11 // []coll.Chunk[workload.Item]
	WireIDKeyChunks       uint8 = 12 // []coll.Chunk[btree.Key]
	WireIDKeyedItemChunks uint8 = 13 // []coll.Chunk[core.keyedItem]
	WireIDThreshMsg       uint8 = 14 // core threshold broadcast
	WireIDClusterStats    uint8 = 20 // reservoir.clusterStats (merged stats reduction)
	WireIDCommand         uint8 = 21 // nodesvc.command (per-round control broadcast)
	WireIDResyncMsg       uint8 = 22 // nodesvc.resyncMsg (recovery control plane)

	// Registered by internal/transport/faultnet.
	WireIDEnvelope uint8 = 17 // faultnet.envelope (wraps a nested payload)
)

// Marshaler is one concrete payload type's hand-rolled wire codec.
// Construct and register one with RegisterMarshaler from a package init
// function.
type Marshaler struct {
	id     uint8
	name   string
	append func(buf []byte, v any) []byte
	decode func(d *Dec) (any, error)
}

var (
	wireByType = map[reflect.Type]*Marshaler{}
	wireByID   [256]*Marshaler
)

// RegisterMarshaler installs a wire codec for T under the given static
// wire ID. enc appends T's binary encoding to buf and returns the
// extended slice; dec reads exactly one value from the cursor (the
// registry rejects trailing bytes afterwards). Must be called from
// package init only — the registry is lock-free read-only afterwards —
// and panics on the reserved ID 0 or a duplicate ID or type, which is
// always a wiring bug.
func RegisterMarshaler[T any](id uint8, enc func(buf []byte, v T) []byte, dec func(d *Dec) (T, error)) {
	var zero T
	t := reflect.TypeOf(zero)
	name := t.String()
	if id == 0 {
		panic(fmt.Sprintf("transport: wire ID 0 is reserved (registering %s)", name))
	}
	if wireByID[id] != nil {
		panic(fmt.Sprintf("transport: wire ID %d already registered for %s", id, wireByID[id].name))
	}
	if _, dup := wireByType[t]; dup {
		panic(fmt.Sprintf("transport: wire codec for %s registered twice", name))
	}
	m := &Marshaler{
		id:   id,
		name: name,
		append: func(buf []byte, v any) []byte {
			return enc(buf, v.(T))
		},
		decode: func(d *Dec) (any, error) {
			return dec(d)
		},
	}
	wireByType[t] = m
	wireByID[id] = m
}

// AppendPayload appends the encoded body for payload v to buf and
// returns the extended slice: the wire ID of v's registered codec, then
// that codec's binary encoding. It panics if v's type has no registered
// codec or if the encoding exceeds MaxPayloadBytes — both are
// programming errors at the send site.
func AppendPayload(buf []byte, v any) []byte {
	m := wireByType[reflect.TypeOf(v)]
	if m == nil {
		panic(fmt.Sprintf("transport: no wire codec registered for payload type %T", v))
	}
	buf = append(buf, m.id)
	buf = m.append(buf, v)
	if len(buf) > MaxPayloadBytes {
		panic(fmt.Sprintf("transport: encoded %s exceeds %d bytes", m.name, MaxPayloadBytes))
	}
	return buf
}

// DecodePayload decodes one message body produced by AppendPayload.
// Unknown wire IDs (0 included), truncated values, length-lying
// slice headers, and trailing garbage all return errors — never panics
// and never large speculative allocations (fuzzed; see wire_fuzz_test).
func DecodePayload(data []byte) (any, error) {
	return decodePayload(data, 0)
}

func decodePayload(data []byte, depth int) (any, error) {
	if depth > maxNestedPayloads {
		return nil, fmt.Errorf("transport: wire payload nested deeper than %d", maxNestedPayloads)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("transport: empty payload body")
	}
	m := wireByID[data[0]]
	if m == nil {
		return nil, fmt.Errorf("transport: unknown wire codec ID 0x%02x", data[0])
	}
	d := &Dec{b: data[1:], depth: depth}
	v, err := m.decode(d)
	if err == nil {
		err = d.Close()
	}
	if err != nil {
		return nil, &payloadError{name: m.name, err: err}
	}
	return v, nil
}

// payloadError names the payload type a decode failed in. Like
// decodeError it is formatted only when read, so rejecting hostile input
// costs one small allocation and no formatting.
type payloadError struct {
	name string
	err  error
}

func (e *payloadError) Error() string { return "transport: decoding " + e.name + ": " + e.err.Error() }
func (e *payloadError) Unwrap() error { return e.err }

// Encode helpers for wire codecs.

// AppendUvarint appends x as an unsigned varint.
func AppendUvarint(buf []byte, x uint64) []byte { return binary.AppendUvarint(buf, x) }

// AppendVarint appends x as a zigzag-encoded signed varint.
func AppendVarint(buf []byte, x int64) []byte { return binary.AppendVarint(buf, x) }

// AppendU64 appends x as 8 little-endian bytes.
func AppendU64(buf []byte, x uint64) []byte { return binary.LittleEndian.AppendUint64(buf, x) }

// AppendU32 appends x as 4 little-endian bytes.
func AppendU32(buf []byte, x uint32) []byte { return binary.LittleEndian.AppendUint32(buf, x) }

// AppendF64 appends x's IEEE-754 bits as 8 little-endian bytes
// (bit-exact round-trips, NaN payloads included — the equivalence suite
// demands byte-identical samples across backends).
func AppendF64(buf []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
}

// AppendBool appends x as one byte (0 or 1).
func AppendBool(buf []byte, x bool) []byte {
	if x {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendBytes appends b as a length-prefixed byte string (uvarint count,
// raw bytes). Pair with Dec.Bytes.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBlob appends b prefixed by its length as 8 little-endian bytes
// (the framing of snapshot blobs). Pair with Dec.Blob.
func AppendBlob(buf, b []byte) []byte {
	buf = AppendU64(buf, uint64(len(b)))
	return append(buf, b...)
}

// Dec is a bounds-checked decode cursor over one wire payload body.
// Read methods record the first failure instead of panicking; check Err
// mid-decode before trusting a length, or let the registry's Close call
// surface it. After an error every subsequent read returns zero values.
type Dec struct {
	b       []byte
	off     int
	depth   int
	err     error
	failure decodeError // err points here after a failed read
}

// decodeError is a failed Dec read: what was being read and where. It
// is formatted only when read; the cursor embeds it, so failing a read
// allocates nothing.
type decodeError struct {
	what string
	off  int
}

func (e *decodeError) Error() string {
	return fmt.Sprintf("truncated or malformed %s at offset %d", e.what, e.off)
}

// NewDec returns a cursor over b (tests and nested codecs; transports
// go through DecodePayload).
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail(what string) {
	if d.err == nil {
		d.failure = decodeError{what: what, off: d.off}
		d.err = &d.failure
	}
}

// Fail records err as the cursor's failure unless one is already
// recorded: codecs report their own checks (a bad magic number, an
// out-of-range field) through the same first-error slot as a short read.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the first decode failure, if any.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.b) - d.off }

// Close returns the first decode failure, or an error if unread bytes
// remain — a complete value must consume its body exactly.
func (d *Dec) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%d trailing bytes after value", len(d.b)-d.off)
	}
	return nil
}

// U8 reads one byte.
func (d *Dec) U8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads one byte as a strict boolean (0 or 1).
func (d *Dec) Bool() bool {
	switch d.U8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bool")
		return false
	}
}

// U32 reads 4 little-endian bytes.
func (d *Dec) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 reads 8 little-endian bytes.
func (d *Dec) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// F64 reads 8 little-endian bytes as IEEE-754 float bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int.
func (d *Dec) Int() int { return int(d.Varint()) }

// Len reads a slice length and validates it against the bytes still
// present: each claimed element needs at least elemMin encoded bytes,
// so a length-lying header fails here — before any allocation — rather
// than sizing a make() from attacker-controlled input. elemMin must be
// the minimum (not typical) encoded element size, ≥ 1.
func (d *Dec) Len(elemMin int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining())/uint64(elemMin) {
		d.fail("slice length")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string (see AppendBytes). The
// result is a copy: decode buffers are pooled by the transport and reused
// after the message is consumed, so aliasing them would corrupt values
// that outlive the decode.
func (d *Dec) Bytes() []byte {
	n := d.Len(1)
	if d.err != nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+n])
	d.off += n
	return out
}

// Blob reads a byte string prefixed by its length as 8 little-endian
// bytes (see AppendBlob). Unlike Bytes the result aliases the input, so
// use it only on input the caller owns for as long as it keeps the
// result (snapshots), never on a pooled transport buffer.
func (d *Dec) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("blob length")
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Payload decodes all remaining bytes as one nested wire payload —
// envelope-style codecs (faultnet) wrap another message this way.
// Nesting depth is bounded; see maxNestedPayloads.
func (d *Dec) Payload() (any, error) {
	if d.err != nil {
		return nil, d.err
	}
	rest := d.b[d.off:]
	d.off = len(d.b)
	return decodePayload(rest, d.depth+1)
}

// Flusher is implemented by transports that buffer sends per peer link
// until an explicit flush (tcpnet's send batching). The collectives
// flush at operation exit, and a batching transport's Recv must flush
// its own pending sends before blocking so SPMD lockstep code never
// deadlocks on its own buffered traffic.
type Flusher interface {
	Flush()
}

// FlushConn flushes c's buffered sends if the transport batches them;
// a no-op for every other Conn (the simulator delivers synchronously).
func FlushConn(c Conn) {
	if f, ok := c.(Flusher); ok {
		f.Flush()
	}
}

// Builtin codecs for the scalar and []int payloads every collective
// leans on (sizes, counts, reduce accumulators).
func init() {
	RegisterMarshaler(WireIDInt,
		func(buf []byte, v int) []byte { return AppendVarint(buf, int64(v)) },
		func(d *Dec) (int, error) { return d.Int(), d.Err() })
	RegisterMarshaler(WireIDFloat64,
		func(buf []byte, v float64) []byte { return AppendF64(buf, v) },
		func(d *Dec) (float64, error) { return d.F64(), d.Err() })
	RegisterMarshaler(WireIDIntSlice,
		func(buf []byte, v []int) []byte {
			buf = AppendUvarint(buf, uint64(len(v)))
			for _, x := range v {
				buf = AppendVarint(buf, int64(x))
			}
			return buf
		},
		func(d *Dec) ([]int, error) {
			n := d.Len(1)
			if d.Err() != nil {
				return nil, d.Err()
			}
			v := make([]int, n)
			for i := range v {
				v[i] = d.Int()
			}
			return v, d.Err()
		})
}
