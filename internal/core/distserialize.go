package core

import (
	"errors"
	"fmt"

	"reservoir/internal/btree"
	"reservoir/internal/rng"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// Distributed checkpointing: each PE of the distributed sampler can
// snapshot its local reservoir, threshold, and PRNG state, so a whole
// cluster can be persisted and resumed bit-identically (same future
// samples for the same future input). Virtual-time measurements and
// operation counters restart from zero on restore; they are measurements
// of a run, not sampler state.

const kindDistPE = byte(3)

// appendPEHeader appends a per-PE snapshot's header: the sampler header,
// then the rank it was taken on.
func appendPEHeader(b []byte, kind byte, rank int) []byte {
	return transport.AppendU32(appendSnapHeader(b, kind), uint32(rank))
}

// openPESnap reads a per-PE snapshot's header and refuses another
// rank's snapshot.
func openPESnap(d *transport.Dec, kind byte, rank int) {
	openSnap(d, kind)
	if r := d.U32(); int(r) != rank {
		d.Fail(fmt.Errorf("snapshot is for PE %d, this is PE %d", r, rank))
	}
}

// checkThreshold fails the decode unless a present threshold is
// non-negative. A threshold of 0 is reachable (a key of 0 in the sample)
// and admits nothing: skipWeight and rng.GeometricSkip give it an endless
// skip.
func checkThreshold(d *transport.Dec, have bool, v float64) {
	if have && !(v >= 0) {
		d.Fail(fmt.Errorf("corrupt snapshot (threshold %v)", v))
	}
}

// MarshalBinary snapshots this PE's sampler state: the reservoir,
// thresholds and selection stream, then a shard section carrying the
// fixed scan threshold and the per-shard scan streams. Snapshots are
// round boundaries: a pipelined selection must be drained
// (FinishPending) first.
func (pe *DistPE) MarshalBinary() ([]byte, error) {
	if pe.pendingSel {
		return nil, fmt.Errorf("core: snapshot with an undrained pipelined selection (call FinishPending first)")
	}
	n := pe.res.Len()
	// Header 76 bytes, 32 per reservoir entry, 13 bytes of shard header,
	// and 40 per prefixed RNG state.
	b := make([]byte, 0, 76+32*n+13+40*(1+len(pe.shardSrc)))
	b = appendPEHeader(b, kindDistPE, pe.comm.Rank())
	b = appendKey(transport.AppendBool(b, pe.haveT), pe.thresh)
	b = appendKey(transport.AppendBool(b, pe.haveLocalT), pe.localThresh)
	for _, v := range [...]uint64{pe.keySeq, uint64(pe.size), uint64(pe.seen), uint64(n)} {
		b = transport.AppendU64(b, v)
	}
	pe.res.ForEach(func(k btree.Key, it workload.Item) bool {
		b = appendItem(appendKey(b, k), it)
		return true
	})
	b, err := appendRNG(b, pe.src)
	if err != nil {
		return nil, err
	}
	b = transport.AppendF64(transport.AppendBool(b, pe.scanHaveT), pe.scanThresh)
	b = transport.AppendU32(b, uint32(len(pe.shardSrc)))
	for _, src := range pe.shardSrc {
		if b, err = appendRNG(b, src); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary on a
// freshly constructed DistPE with the same Config and rank.
func (pe *DistPE) UnmarshalBinary(data []byte) error {
	d := transport.NewDec(data)
	openPESnap(d, kindDistPE, pe.comm.Rank())
	haveT, thresh := d.Bool(), decKey(d)
	checkThreshold(d, haveT, thresh.V)
	haveLocalT, localThresh := d.Bool(), decKey(d)
	keySeq, size, seen := d.U64(), d.U64(), d.U64()
	res := btree.New[workload.Item]()
	var prev btree.Key
	for i := range decCount(d, 32) {
		ki := decKeyedItem(d)
		if i > 0 && !prev.Less(ki.Key) {
			d.Fail(errors.New("corrupt snapshot (reservoir keys out of order)"))
			break
		}
		prev = ki.Key
		res.Insert(ki.Key, ki.Item)
	}
	src := decRNG(d)
	scanHaveT, scanThresh := d.Bool(), d.F64()
	checkThreshold(d, scanHaveT, scanThresh)
	if shards := d.U32(); int(shards) != pe.cfg.Shards {
		d.Fail(fmt.Errorf("snapshot has %d scan shards, config wants %d", shards, pe.cfg.Shards))
	}
	shardSrc := make([]*rng.Xoshiro256, pe.cfg.Shards)
	for i := range shardSrc {
		shardSrc[i] = decRNG(d)
	}
	if err := closeSnap(d); err != nil {
		return err
	}

	pe.res = res
	pe.haveT = haveT
	pe.thresh = thresh
	pe.haveLocalT = haveLocalT
	pe.localThresh = localThresh
	pe.keySeq = keySeq
	pe.size = int(size)
	pe.seen = int64(seen)
	pe.src = src
	pe.shardSrc = shardSrc
	pe.scanHaveT = scanHaveT
	pe.scanThresh = scanThresh
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
