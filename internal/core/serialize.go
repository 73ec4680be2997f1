package core

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"reservoir/internal/rng"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// Checkpointing for the sequential samplers: a stream processor can
// snapshot a sampler, persist it, and resume the exact same sampling
// process after a restart — including the PRNG state, so a resumed run is
// bit-identical to an uninterrupted one.
//
// Every sampler snapshot (these and the per-PE ones in
// distserialize.go and gatherserialize.go) starts with the same
// header (magic, version, kind), stores each PRNG stream as a u64 length
// plus its state, and is decoded through the wire codec's bounds-checked
// cursor (transport.Dec). All words are little endian.
//
// Sequential layout: header, k, skip state (float64 or int64 bits),
// items-seen, weight-seen, heap (u64 length, then (key, weight, id)*),
// RNG state.

const (
	snapshotMagic   = uint32(0x5e5a3107)
	snapshotVersion = 1
	kindWeighted    = byte(1)
	kindUniform     = byte(2)
	// Kind 5 tagged the deleted sliding-window sampler; never reuse it.
)

// appendSnapHeader appends the header every sampler snapshot starts with.
func appendSnapHeader(b []byte, kind byte) []byte {
	b = transport.AppendU32(b, snapshotMagic)
	return append(b, snapshotVersion, kind)
}

// openSnap reads the header of a snapshot that must be of the given kind.
func openSnap(d *transport.Dec, kind byte) {
	if d.U32() != snapshotMagic {
		d.Fail(errors.New("not a sampler snapshot"))
	}
	if v := d.U8(); v != snapshotVersion {
		d.Fail(fmt.Errorf("unsupported snapshot version %d", v))
	}
	if got := d.U8(); got != kind {
		d.Fail(fmt.Errorf("snapshot kind mismatch (got %d, want %d)", got, kind))
	}
}

// closeSnap returns a snapshot decode's first failure, or an error if
// bytes remain after the value.
func closeSnap(d *transport.Dec) error {
	if err := d.Close(); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// appendRNG appends a random source's state prefixed by its length. The
// source must implement encoding.BinaryAppender, as the default
// xoshiro256** engine does.
func appendRNG(b []byte, src rng.Source) ([]byte, error) {
	a, ok := src.(encoding.BinaryAppender)
	if !ok {
		return nil, fmt.Errorf("core: random source %T does not support snapshots", src)
	}
	at := len(b)
	b, err := a.AppendBinary(transport.AppendU64(b, 0))
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	return b, nil
}

// decRNG reads an appendRNG state into a fresh xoshiro256** engine.
func decRNG(d *transport.Dec) *rng.Xoshiro256 {
	x := new(rng.Xoshiro256)
	if err := x.UnmarshalBinary(d.Blob()); err != nil {
		d.Fail(err)
	}
	return x
}

// decCount reads a u64 element count and checks it against the bytes
// left, elemBytes per element, so a length-lying header fails before
// anything is allocated.
func decCount(d *transport.Dec, elemBytes int) int {
	n := d.U64()
	if n > uint64(d.Remaining()/elemBytes) {
		d.Fail(fmt.Errorf("corrupt snapshot (%d entries claimed, %d bytes remain)", n, d.Remaining()))
		return 0
	}
	return int(n)
}

// appendHeap appends a sample heap: its length, then each entry's key
// and item.
func appendHeap(b []byte, h *maxHeap) []byte {
	b = transport.AppendU64(b, uint64(h.len()))
	for i, key := range h.keys {
		b = appendItem(transport.AppendF64(b, key), h.items[i])
	}
	return b
}

// decHeap reads an appendHeap heap of at most k entries. The keys must
// be non-negative and in heap order. A maximum of 0 is a reachable state
// (every key 0), against which skipWeight admits nothing.
func decHeap(d *transport.Dec, k int) maxHeap {
	n := decCount(d, 24)
	if n > k {
		d.Fail(fmt.Errorf("corrupt snapshot (heap of %d entries, k=%d)", n, k))
		return maxHeap{}
	}
	h := maxHeap{keys: make([]float64, n), items: make([]workload.Item, n)}
	for i := range h.keys {
		h.keys[i], h.items[i] = d.F64(), decItem(d)
		if !(h.keys[i] >= 0) || i > 0 && h.keys[i] > h.keys[(i-1)/2] {
			d.Fail(fmt.Errorf("corrupt snapshot (heap key %d is %v, out of order or range)", i, h.keys[i]))
			return maxHeap{}
		}
	}
	return h
}

// MarshalBinary snapshots the sampler. The sampler's random source must
// implement encoding.BinaryAppender (the default xoshiro256** engine
// does).
func (s *SeqWeighted) MarshalBinary() ([]byte, error) {
	return marshalSeq(kindWeighted, s.k, math.Float64bits(s.x), uint64(s.n),
		s.wSum, &s.h, s.src)
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary. The
// receiver's configuration is replaced entirely.
func (s *SeqWeighted) UnmarshalBinary(data []byte) error {
	st, err := unmarshalSeq(kindWeighted, data)
	if err != nil {
		return err
	}
	s.k = st.k
	s.x = math.Float64frombits(st.skipBits)
	s.n = int64(st.n)
	s.wSum = st.wSum
	s.h = st.h
	s.src = st.src
	return nil
}

// MarshalBinary snapshots the sampler (see SeqWeighted.MarshalBinary).
func (s *SeqUniform) MarshalBinary() ([]byte, error) {
	return marshalSeq(kindUniform, s.k, uint64(s.skip), uint64(s.n), 0, &s.h, s.src)
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary.
func (s *SeqUniform) UnmarshalBinary(data []byte) error {
	st, err := unmarshalSeq(kindUniform, data)
	if err != nil {
		return err
	}
	s.k = st.k
	s.skip = int(st.skipBits)
	s.n = int64(st.n)
	s.h = st.h
	s.src = st.src
	return nil
}

func marshalSeq(kind byte, k int, skipBits, n uint64, wSum float64, h *maxHeap, src rng.Source) ([]byte, error) {
	// Header and fields 46 bytes, 24 per heap entry, the prefixed RNG
	// state.
	b := appendSnapHeader(make([]byte, 0, 46+24*h.len()+40), kind)
	for _, v := range [...]uint64{uint64(k), skipBits, n, math.Float64bits(wSum)} {
		b = transport.AppendU64(b, v)
	}
	return appendRNG(appendHeap(b, h), src)
}

type seqState struct {
	k        int
	skipBits uint64
	n        uint64
	wSum     float64
	h        maxHeap
	src      rng.Source
}

func unmarshalSeq(kind byte, data []byte) (seqState, error) {
	d := transport.NewDec(data)
	openSnap(d, kind)
	st := seqState{k: int(d.U64()), skipBits: d.U64(), n: d.U64(), wSum: d.F64()}
	if st.k < 1 {
		d.Fail(fmt.Errorf("corrupt snapshot (k=%d)", st.k))
	}
	// A uniform snapshot encodes wSum as 0 and a skip count below 2^63;
	// anything else is corruption (a negative skip would index before the
	// next batch).
	if kind == kindUniform && (math.Float64bits(st.wSum) != 0 || int64(st.skipBits) < 0) {
		d.Fail(fmt.Errorf("corrupt snapshot (uniform sampler with wSum %v, skip %d)", st.wSum, int64(st.skipBits)))
	}
	st.h = decHeap(d, st.k)
	st.src = decRNG(d)
	return st, closeSnap(d)
}
