package core

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"math"

	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// Checkpointing for the sequential samplers: a stream processor can
// snapshot a sampler, persist it, and resume the exact same sampling
// process after a restart — including the PRNG state, so a resumed run is
// bit-identical to an uninterrupted one.
//
// Binary layout (little endian): magic, version, kind, k,
// skip state (float64 or int64), items-seen, weight-seen, heap size,
// heap (key, weight, id)*, RNG state length, RNG state.

const (
	snapshotMagic   = uint32(0x5e5a3107)
	snapshotVersion = 1
	kindWeighted    = byte(1)
	kindUniform     = byte(2)
)

// MarshalBinary snapshots the sampler. The sampler's random source must
// implement encoding.BinaryMarshaler (the default xoshiro256** engine
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
	m, ok := src.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: random source %T does not support snapshots", src)
	}
	rngState, err := m.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	var buf bytes.Buffer
	w := func(v any) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w(snapshotMagic)
	w(byte(snapshotVersion))
	w(kind)
	w(uint64(k))
	w(skipBits)
	w(n)
	w(math.Float64bits(wSum))
	w(uint64(h.len()))
	for i, key := range h.keys {
		w(math.Float64bits(key))
		w(math.Float64bits(h.items[i].W))
		w(h.items[i].ID)
	}
	w(uint64(len(rngState)))
	buf.Write(rngState)
	return buf.Bytes(), nil
}

type seqState struct {
	k        int
	skipBits uint64
	n        uint64
	wSum     float64
	h        maxHeap
	src      rng.Source
}

func unmarshalSeq(wantKind byte, data []byte) (seqState, error) {
	var st seqState
	r := bytes.NewReader(data)
	var magic uint32
	var version, kind byte
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := rd(&magic); err != nil || magic != snapshotMagic {
		return st, fmt.Errorf("core: not a sampler snapshot")
	}
	if err := rd(&version); err != nil || version != snapshotVersion {
		return st, fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	if err := rd(&kind); err != nil || kind != wantKind {
		return st, fmt.Errorf("core: snapshot kind mismatch (got %d, want %d)", kind, wantKind)
	}
	var k, heapLen, rngLen uint64
	var wSumBits uint64
	if err := firstErr(rd(&k), rd(&st.skipBits), rd(&st.n), rd(&wSumBits), rd(&heapLen)); err != nil {
		return st, fmt.Errorf("core: truncated snapshot header: %w", err)
	}
	st.k = int(k)
	st.wSum = math.Float64frombits(wSumBits)
	if wantKind == kindUniform && wSumBits != 0 {
		// Uniform snapshots always encode wSum as 0; anything else is
		// corruption (and would not survive a re-marshal round-trip).
		return st, fmt.Errorf("core: corrupt snapshot (uniform sampler with wSum bits %#x)", wSumBits)
	}
	if st.k < 1 || heapLen > k {
		return st, fmt.Errorf("core: corrupt snapshot (k=%d, heap=%d)", st.k, heapLen)
	}
	// Each heap entry is 24 bytes; reject length-lying headers before
	// allocating the heap, so corrupt input cannot force a huge allocation.
	if heapLen > uint64(r.Len())/24 {
		return st, fmt.Errorf("core: corrupt snapshot (heap claims %d entries, %d bytes remain)", heapLen, r.Len())
	}
	st.h.keys = make([]float64, heapLen)
	st.h.items = make([]workload.Item, heapLen)
	for i := uint64(0); i < heapLen; i++ {
		var keyBits, wBits, id uint64
		if err := firstErr(rd(&keyBits), rd(&wBits), rd(&id)); err != nil {
			return st, fmt.Errorf("core: truncated snapshot heap: %w", err)
		}
		st.h.keys[i] = math.Float64frombits(keyBits)
		st.h.items[i] = workload.Item{W: math.Float64frombits(wBits), ID: id}
	}
	// Validate the heap property rather than trusting the input.
	for i := 1; i < int(heapLen); i++ {
		if st.h.keys[i] > st.h.keys[(i-1)/2] {
			return st, fmt.Errorf("core: corrupt snapshot (heap order violated at %d)", i)
		}
	}
	if err := rd(&rngLen); err != nil || rngLen > uint64(r.Len()) {
		return st, fmt.Errorf("core: truncated snapshot RNG state")
	}
	rngState := make([]byte, rngLen)
	if _, err := r.Read(rngState); err != nil {
		return st, fmt.Errorf("core: truncated snapshot RNG state: %w", err)
	}
	x := rng.NewXoshiro256(1)
	if err := x.UnmarshalBinary(rngState); err != nil {
		return st, err
	}
	if r.Len() != 0 {
		return st, fmt.Errorf("core: %d trailing bytes in snapshot", r.Len())
	}
	st.src = x
	return st, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// kindWindowed tags WindowedWeighted snapshots.
const kindWindowed = byte(5)

// MarshalBinary snapshots the sliding-window sampler: its shape (k,
// chunkLen, chunks), the ring position (head, inChunk), the item count,
// every ring chunk (a used flag and its heap of (key, weight, id)
// entries), then the RNG state. The random source must implement
// encoding.BinaryMarshaler (the default xoshiro256** engine does).
func (s *WindowedWeighted) MarshalBinary() ([]byte, error) {
	m, ok := s.src.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("core: random source %T does not support snapshots", s.src)
	}
	rngState, err := m.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	le := binary.LittleEndian
	size := 54 + 8 + len(rngState)
	for i := range s.ring {
		size += 9 + 24*s.ring[i].h.len()
	}
	b := make([]byte, 0, size)
	b = le.AppendUint32(b, snapshotMagic)
	b = append(b, snapshotVersion, kindWindowed)
	for _, v := range [...]uint64{uint64(s.k), uint64(s.chunkLen), uint64(s.chunks),
		uint64(s.head), uint64(s.inChunk), uint64(s.n)} {
		b = le.AppendUint64(b, v)
	}
	for i := range s.ring {
		c := &s.ring[i]
		b = append(b, boolByte(c.used))
		b = le.AppendUint64(b, uint64(c.h.len()))
		for j, key := range c.h.keys {
			b = le.AppendUint64(b, math.Float64bits(key))
			b = appendItem(b, c.h.items[j])
		}
	}
	b = le.AppendUint64(b, uint64(len(rngState)))
	return append(b, rngState...), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary into a
// sampler built by NewWindowedWeighted with the same k, window and
// chunkLen; a snapshot of a differently shaped sampler is refused.
func (s *WindowedWeighted) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	rd := func(v any) error { return binary.Read(r, binary.LittleEndian, v) }
	var magic uint32
	var version, kind byte
	if err := rd(&magic); err != nil || magic != snapshotMagic {
		return fmt.Errorf("core: not a sampler snapshot")
	}
	if err := rd(&version); err != nil || version != snapshotVersion {
		return fmt.Errorf("core: unsupported snapshot version %d", version)
	}
	if err := rd(&kind); err != nil || kind != kindWindowed {
		return fmt.Errorf("core: snapshot kind mismatch (got %d, want %d)", kind, kindWindowed)
	}
	var k, chunkLen, chunks, head, inChunk, n uint64
	if err := firstErr(rd(&k), rd(&chunkLen), rd(&chunks), rd(&head), rd(&inChunk), rd(&n)); err != nil {
		return fmt.Errorf("core: truncated snapshot header: %w", err)
	}
	if k != uint64(s.k) || chunkLen != uint64(s.chunkLen) || chunks != uint64(s.chunks) {
		return fmt.Errorf("core: snapshot of a k=%d chunk_len=%d chunks=%d window sampler, this one is k=%d chunk_len=%d chunks=%d",
			k, chunkLen, chunks, s.k, s.chunkLen, s.chunks)
	}
	if head >= chunks || inChunk > chunkLen {
		return fmt.Errorf("core: corrupt snapshot (head=%d, in_chunk=%d)", head, inChunk)
	}
	ring := make([]chunkSample, chunks)
	for i := range ring {
		var used byte
		var heapLen uint64
		if err := firstErr(rd(&used), rd(&heapLen)); err != nil {
			return fmt.Errorf("core: truncated snapshot chunk %d: %w", i, err)
		}
		// Each heap entry is 24 bytes; reject length-lying headers before
		// allocating the heap.
		if used > 1 || heapLen > k || (used == 0 && heapLen > 0) || heapLen > uint64(r.Len())/24 {
			return fmt.Errorf("core: corrupt snapshot chunk %d (used=%d, heap=%d)", i, used, heapLen)
		}
		c := &ring[i]
		c.used = used == 1
		if heapLen == 0 {
			continue
		}
		c.h.keys = make([]float64, heapLen)
		c.h.items = make([]workload.Item, heapLen)
		for j := range c.h.keys {
			var keyBits, wBits, id uint64
			if err := firstErr(rd(&keyBits), rd(&wBits), rd(&id)); err != nil {
				return fmt.Errorf("core: truncated snapshot chunk %d: %w", i, err)
			}
			c.h.keys[j] = math.Float64frombits(keyBits)
			c.h.items[j] = workload.Item{W: math.Float64frombits(wBits), ID: id}
			if j > 0 && c.h.keys[j] > c.h.keys[(j-1)/2] {
				return fmt.Errorf("core: corrupt snapshot chunk %d (heap order violated at %d)", i, j)
			}
		}
	}
	var rngLen uint64
	if err := rd(&rngLen); err != nil || rngLen > uint64(r.Len()) {
		return fmt.Errorf("core: truncated snapshot RNG state")
	}
	rngState := make([]byte, rngLen)
	if _, err := r.Read(rngState); err != nil {
		return fmt.Errorf("core: truncated snapshot RNG state: %w", err)
	}
	x := rng.NewXoshiro256(1)
	if err := x.UnmarshalBinary(rngState); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: %d trailing bytes in snapshot", r.Len())
	}
	s.ring = ring
	s.head = int(head)
	s.inChunk = int(inChunk)
	s.n = int64(n)
	s.src = x
	return nil
}
