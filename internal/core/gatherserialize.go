package core

import (
	"fmt"

	"reservoir/internal/transport"
)

// Checkpointing for the centralized baseline: like DistPE, each GatherPE
// can snapshot its local state (threshold, key counter, PRNG, and — at
// the root — the current sample) so a node of a gather cluster survives a
// crash-restart bit-identically. Virtual-time measurements and operation
// counters restart from zero on restore.

const kindGatherPE = byte(4)

// MarshalBinary snapshots this PE's sampler state.
func (pe *GatherPE) MarshalBinary() ([]byte, error) {
	// Header 59 bytes, 32 per sample entry, the prefixed RNG state.
	b := make([]byte, 0, 59+32*len(pe.rootRes)+40)
	b = appendPEHeader(b, kindGatherPE, pe.comm.Rank())
	b = appendKey(transport.AppendBool(b, pe.haveT), pe.thresh)
	for _, v := range [...]uint64{pe.keySeq, uint64(pe.size), uint64(pe.seen), uint64(len(pe.rootRes))} {
		b = transport.AppendU64(b, v)
	}
	for _, ki := range pe.rootRes {
		b = appendKeyedItem(b, ki)
	}
	return appendRNG(b, pe.src)
}

// UnmarshalBinary restores a snapshot produced by MarshalBinary on a
// freshly constructed GatherPE with the same Config and rank.
func (pe *GatherPE) UnmarshalBinary(data []byte) error {
	d := transport.NewDec(data)
	openPESnap(d, kindGatherPE, pe.comm.Rank())
	haveT, thresh := d.Bool(), decKey(d)
	checkThreshold(d, haveT, thresh.V)
	keySeq, size, seen := d.U64(), d.U64(), d.U64()
	res := make([]keyedItem, decCount(d, 32))
	if len(res) > 0 && pe.comm.Rank() != 0 {
		d.Fail(fmt.Errorf("corrupt snapshot (non-root gather PE carries %d sample items)", len(res)))
	}
	for i := range res {
		res[i] = decKeyedItem(d)
	}
	src := decRNG(d)
	if err := closeSnap(d); err != nil {
		return err
	}

	pe.haveT = haveT
	pe.thresh = thresh
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
