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

// Distributed checkpointing: each PE of the distributed sampler can
// snapshot its local reservoir, threshold, and PRNG state, so a whole
// cluster can be persisted and resumed bit-identically (same future
// samples for the same future input). Virtual-time measurements and
// operation counters restart from zero on restore; they are measurements
// of a run, not sampler state.

const kindDistPE = byte(3)

// MarshalBinary snapshots this PE's sampler state: the reservoir,
// thresholds and selection stream, then a shard section carrying the
// fixed scan threshold and the per-shard scan streams. Snapshots are
// round boundaries: a pipelined selection must be drained
// (FinishPending) first.
func (pe *DistPE) MarshalBinary() ([]byte, error) {
	if pe.pendingSel {
		return nil, fmt.Errorf("core: snapshot with an undrained pipelined selection (call FinishPending first)")
	}
	rngState, err := pe.src.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot RNG state: %w", err)
	}
	le := binary.LittleEndian
	n := pe.res.Len()
	// Header 76 bytes, 32 per reservoir entry, the length-prefixed RNG
	// state, then 13 bytes of shard header and each shard's prefixed
	// state (the same size as the selection stream's).
	b := make([]byte, 0, 76+32*n+8+len(rngState)+13+len(pe.shardSrc)*(8+len(rngState)))
	b = le.AppendUint32(b, snapshotMagic)
	b = append(b, snapshotVersion, kindDistPE)
	b = le.AppendUint32(b, uint32(pe.comm.Rank()))
	b = append(b, boolByte(pe.haveT))
	b = le.AppendUint64(b, math.Float64bits(pe.thresh.V))
	b = le.AppendUint64(b, pe.thresh.ID)
	b = append(b, boolByte(pe.haveLocalT))
	b = le.AppendUint64(b, math.Float64bits(pe.localThresh.V))
	b = le.AppendUint64(b, pe.localThresh.ID)
	b = le.AppendUint64(b, pe.keySeq)
	b = le.AppendUint64(b, uint64(pe.size))
	b = le.AppendUint64(b, uint64(pe.seen))
	b = le.AppendUint64(b, uint64(n))
	pe.res.ForEach(func(k btree.Key, it workload.Item) bool {
		b = appendItem(appendKey(b, k), it)
		return true
	})
	b = le.AppendUint64(b, uint64(len(rngState)))
	b = append(b, rngState...)
	b = append(b, boolByte(pe.scanHaveT))
	b = le.AppendUint64(b, math.Float64bits(pe.scanThresh))
	b = le.AppendUint32(b, uint32(len(pe.shardSrc)))
	for _, src := range pe.shardSrc {
		st, err := src.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("core: snapshot shard RNG state: %w", err)
		}
		b = le.AppendUint64(b, uint64(len(st)))
		b = append(b, st...)
	}
	return b, nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary on a
// freshly constructed DistPE with the same Config and rank.
func (pe *DistPE) UnmarshalBinary(data []byte) error {
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
	if err := rd(&kind); err != nil || kind != kindDistPE {
		return fmt.Errorf("core: snapshot kind mismatch (got %d, want %d)", kind, kindDistPE)
	}
	var rank uint32
	if err := rd(&rank); err != nil {
		return fmt.Errorf("core: truncated snapshot: %w", err)
	}
	if int(rank) != pe.comm.Rank() {
		return fmt.Errorf("core: snapshot is for PE %d, this is PE %d", rank, pe.comm.Rank())
	}
	var haveT, haveLocalT byte
	var threshV, threshID, localV, localID uint64
	var keySeq, size, seen, resLen uint64
	if err := firstErr(
		rd(&haveT), rd(&threshV), rd(&threshID),
		rd(&haveLocalT), rd(&localV), rd(&localID),
		rd(&keySeq), rd(&size), rd(&seen), rd(&resLen),
	); err != nil {
		return fmt.Errorf("core: truncated snapshot header: %w", err)
	}
	// Each reservoir entry is 32 bytes; a length claim the remaining input
	// cannot back is corruption, rejected before any insertion work.
	if resLen > uint64(r.Len())/32 {
		return fmt.Errorf("core: corrupt snapshot (reservoir claims %d entries, %d bytes remain)", resLen, r.Len())
	}
	degree := pe.cfg.TreeDegree
	if degree == 0 {
		degree = btree.DefaultDegree
	}
	res := btree.NewWithDegree[workload.Item](degree)
	var prev btree.Key
	for i := uint64(0); i < resLen; i++ {
		var kv, kid, wv, iid uint64
		if err := firstErr(rd(&kv), rd(&kid), rd(&wv), rd(&iid)); err != nil {
			return fmt.Errorf("core: truncated snapshot reservoir: %w", err)
		}
		k := btree.Key{V: math.Float64frombits(kv), ID: kid}
		if i > 0 && !prev.Less(k) {
			return fmt.Errorf("core: corrupt snapshot (reservoir keys out of order)")
		}
		prev = k
		res.Insert(k, workload.Item{W: math.Float64frombits(wv), ID: iid})
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
	var scanHaveT byte
	var scanThreshBits uint64
	var shardCount uint32
	if err := firstErr(rd(&scanHaveT), rd(&scanThreshBits), rd(&shardCount)); err != nil {
		return fmt.Errorf("core: truncated snapshot shard section: %w", err)
	}
	if int(shardCount) != pe.cfg.Shards {
		return fmt.Errorf("core: snapshot has %d scan shards, config wants %d", shardCount, pe.cfg.Shards)
	}
	shardSrc := make([]*rng.Xoshiro256, shardCount)
	for i := range shardSrc {
		var n uint64
		if err := rd(&n); err != nil || n > uint64(r.Len()) {
			return fmt.Errorf("core: truncated snapshot shard RNG state")
		}
		st := make([]byte, n)
		if _, err := r.Read(st); err != nil {
			return fmt.Errorf("core: truncated snapshot shard RNG state: %w", err)
		}
		shardSrc[i] = rng.NewXoshiro256(1)
		if err := shardSrc[i].UnmarshalBinary(st); err != nil {
			return err
		}
	}
	if r.Len() != 0 {
		return fmt.Errorf("core: %d trailing bytes in snapshot", r.Len())
	}

	pe.res = res
	pe.haveT = haveT != 0
	pe.thresh = btree.Key{V: math.Float64frombits(threshV), ID: threshID}
	pe.haveLocalT = haveLocalT != 0
	pe.localThresh = btree.Key{V: math.Float64frombits(localV), ID: localID}
	pe.keySeq = keySeq
	pe.size = int(size)
	pe.seen = int64(seen)
	pe.src = src
	pe.shardSrc = shardSrc
	pe.scanHaveT = scanHaveT != 0
	pe.scanThresh = math.Float64frombits(scanThreshBits)
	pe.pendingSel = false
	pe.pendingLen = 0
	pe.timing = Timing{}
	pe.counter = Counters{}
	return nil
}

// RestoreCounters reinstates persisted operation counters after an
// UnmarshalBinary (which zeroes them), so a restored cluster reports the
// same lifetime counters as the snapshotting one.
func (pe *DistPE) RestoreCounters(c Counters) { pe.counter = c }

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}
