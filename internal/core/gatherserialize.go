package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"reservoir/internal/btree"
	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// Checkpointing for the centralized baseline: like DistPE, each GatherPE
// can snapshot its local state (threshold, key counter, PRNG, and — at
// the root — the current sample) so a node of a gather cluster survives a
// crash-restart bit-identically. Virtual-time measurements and operation
// counters restart from zero on restore.

const kindGatherPE = byte(4)

// MarshalBinary snapshots this PE's sampler state.
func (pe *GatherPE) MarshalBinary() ([]byte, error) {
	rngState, err := pe.src.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	le := binary.LittleEndian
	// Header 59 bytes, 32 per sample entry, the length-prefixed RNG state.
	b := make([]byte, 0, 59+32*len(pe.rootRes)+8+len(rngState))
	b = le.AppendUint32(b, snapshotMagic)
	b = append(b, snapshotVersion, kindGatherPE)
	b = le.AppendUint32(b, uint32(pe.comm.Rank()))
	b = append(b, boolByte(pe.haveT))
	b = le.AppendUint64(b, math.Float64bits(pe.thresh.V))
	b = le.AppendUint64(b, pe.thresh.ID)
	b = le.AppendUint64(b, pe.keySeq)
	b = le.AppendUint64(b, uint64(pe.size))
	b = le.AppendUint64(b, uint64(pe.seen))
	b = le.AppendUint64(b, uint64(len(pe.rootRes)))
	for _, ki := range pe.rootRes {
		b = appendKeyedItem(b, ki)
	}
	b = le.AppendUint64(b, uint64(len(rngState)))
	return append(b, rngState...), nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary on a
// freshly constructed GatherPE with the same Config and rank.
func (pe *GatherPE) UnmarshalBinary(data []byte) error {
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
	if err := rd(&kind); err != nil || kind != kindGatherPE {
		return fmt.Errorf("core: snapshot kind mismatch (got %d, want %d)", kind, kindGatherPE)
	}
	var rank uint32
	if err := rd(&rank); err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	if int(rank) != pe.comm.Rank() {
		return fmt.Errorf("core: snapshot is for PE %d, this is PE %d", rank, pe.comm.Rank())
	}
	var haveT byte
	var threshV, threshID, keySeq, size, seen, resLen uint64
	if err := firstErr(
		rd(&haveT), rd(&threshV), rd(&threshID),
		rd(&keySeq), rd(&size), rd(&seen), rd(&resLen),
	); err != nil {
		return fmt.Errorf("core: truncated snapshot header: %w", err)
	}
	if resLen > 0 && pe.comm.Rank() != 0 {
		return fmt.Errorf("core: corrupt snapshot (non-root gather PE carries %d sample items)", resLen)
	}
	// Each sample entry is 32 bytes; a length claim the remaining input
	// cannot back is corruption, rejected before any allocation work.
	if resLen > uint64(r.Len())/32 {
		return fmt.Errorf("core: corrupt snapshot (sample claims %d entries, %d bytes remain)", resLen, r.Len())
	}
	res := make([]keyedItem, resLen)
	for i := range res {
		var kv, kid, wv, iid uint64
		if err := firstErr(rd(&kv), rd(&kid), rd(&wv), rd(&iid)); err != nil {
			return fmt.Errorf("core: truncated snapshot sample: %w", err)
		}
		res[i] = keyedItem{
			Key:  btree.Key{V: math.Float64frombits(kv), ID: kid},
			Item: workload.Item{W: math.Float64frombits(wv), ID: iid},
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
	src := rng.NewXoshiro256(1)
	if err := src.UnmarshalBinary(rngState); err != nil {
		return err
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: %d trailing bytes in snapshot", r.Len())
	}

	pe.haveT = haveT != 0
	pe.thresh = btree.Key{V: math.Float64frombits(threshV), ID: threshID}
	pe.keySeq = keySeq
	pe.size = int(size)
	pe.seen = int64(seen)
	pe.rootRes = res
	pe.cands = pe.cands[:0]
	pe.src = src
	pe.timing = Timing{}
	pe.counter = Counters{}
	return nil
}

// RestoreCounters reinstates persisted operation counters after an
// UnmarshalBinary (which zeroes them).
func (pe *GatherPE) RestoreCounters(c Counters) { pe.counter = c }
