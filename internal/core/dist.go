package core

import (
	"math"

	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/costmodel"
	"reservoir/internal/distsel"
	"reservoir/internal/rng"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// Sampler is the common interface of the distributed mini-batch samplers
// (the paper's algorithm and the centralized baseline). All methods are
// SPMD: every PE of the cluster must call them collectively and in the same
// order.
type Sampler interface {
	// ProcessBatch ingests this PE's mini-batch for the current round and
	// runs the collective post-processing (selection / gathering).
	ProcessBatch(b workload.Batch)
	// CollectSample gathers the current global sample at PE 0 (nil on the
	// other PEs).
	CollectSample() []workload.Item
	// LocalSample returns this PE's part of the sample without any
	// communication (and therefore without touching the virtual clocks or
	// traffic counters). The concatenation over all PEs is the global
	// sample. Unlike the collective methods it may be called on a single
	// PE, but never concurrently with a collective call on the same
	// cluster.
	LocalSample() []workload.Item
	// SampleSize returns the current global sample size (on every PE).
	SampleSize() int
	// Seen returns the global number of items processed so far, as known
	// by this PE after its last completed round (no communication).
	Seen() int64
	// Threshold returns the current global key threshold and whether one
	// has been established (i.e. at least k items were seen).
	Threshold() (float64, bool)
	// Timing returns this PE's accumulated per-phase virtual times.
	Timing() Timing
	// Counters returns this PE's accumulated operation counts.
	Counters() Counters
	// MarshalBinary snapshots this PE's state at a committed round
	// boundary; the blob starts with a kind byte, so UnmarshalBinary of
	// the other PE kind refuses it. UnmarshalBinary zeroes the operation
	// counters; RestoreCounters reinstates persisted ones.
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
	RestoreCounters(Counters)
}

// DistPE is one PE of the paper's fully distributed reservoir sampler
// (Algorithm 1, Sec 4.2/4.3): the local part of the sample lives in a B+
// tree keyed by random variates; a global key threshold gates insertions;
// after each mini-batch a distributed selection determines the new
// threshold and each PE discards the local items above it.
type DistPE struct {
	cfg   Config
	comm  *coll.Comm
	model costmodel.Model
	src   *rng.Xoshiro256

	res    *btree.Tree[workload.Item]
	thresh btree.Key
	haveT  bool

	// Local thresholding state (Sec 5, first optimization), active only
	// before a global threshold exists.
	localThresh btree.Key
	haveLocalT  bool

	keySeq  uint64 // per-PE tie-break counter for key IDs
	size    int    // current global sample size (all PEs agree)
	seen    int64  // global number of items seen (all PEs agree)
	timing  Timing
	counter Counters

	// Sharded/pipelined scan state (DESIGN.md §2.6). shardSrc holds the
	// per-shard scan streams; scanThresh is the threshold the next
	// StartScan uses, fixed at the previous CommitScan; pendingSel marks
	// a round whose selection collectives were deferred (Config.Pipeline)
	// and not yet drained.
	shardSrc   []*rng.Xoshiro256
	scanThresh float64
	scanHaveT  bool
	pendingSel bool
	pendingLen int
	scanBufs   [2]*ScanBuf
	scanBufIdx int
}

var _ Sampler = (*DistPE)(nil)

// NewDistPE creates this PE's instance of the distributed sampler. Every PE
// of the cluster must create one with an identical Config.
func NewDistPE(comm *coll.Comm, cfg Config) (*DistPE, error) {
	cfg, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	pe := &DistPE{
		cfg:   cfg,
		comm:  comm,
		model: cfg.Model,
		src:   rng.NewXoshiro256(rng.Mix64(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(comm.Rank()+1)))),
		res:   btree.New[workload.Item](),
	}
	pe.shardSrc = make([]*rng.Xoshiro256, cfg.Shards)
	for s := range pe.shardSrc {
		pe.shardSrc[s] = rng.NewXoshiro256(shardStreamSeed(cfg.Seed, comm.Rank(), s))
	}
	return pe, nil
}

// nextKeyID returns a cluster-unique tie-break ID for a new key.
func (pe *DistPE) nextKeyID() uint64 {
	pe.keySeq++
	return uint64(pe.comm.Rank())<<40 | pe.keySeq
}

// ProcessBatch implements Sampler: it runs the round sequence —
// StartScan, FinishPending, CommitScan — strictly in order. The round
// driver (reservoir.Node) instead calls the three phases itself and
// overlaps StartScan with FinishPending, which yields the byte-identical
// stream because the two phases touch disjoint state; this sequential
// order is the reference its tests compare against.
func (pe *DistPE) ProcessBatch(b workload.Batch) {
	buf := pe.StartScan(b)
	pe.FinishPending()
	pe.CommitScan(b, buf)
}

// selectAndPrune runs the collective part of Algorithm 1: determine the
// global candidate count, select the key of global rank k (or a rank in
// [KMin, KMax] in variable mode), and discard local items above it.
func (pe *DistPE) selectAndPrune(batchLen int) {
	clock := pe.comm.Conn

	t0 := clock.Clock()
	sizes := coll.AllReduce(pe.comm, []int{pe.res.Len(), batchLen}, coll.SumInts, 2)
	s := sizes[0]
	pe.seen += int64(sizes[1])
	pe.timing.SelectNS += clock.Clock() - t0

	fixed := pe.cfg.KMax == 0
	var target int
	switch {
	case fixed:
		target = pe.cfg.K
		if s < target {
			// Fewer than k items seen globally: the sample is everything;
			// no threshold yet.
			pe.size = s
			return
		}
		if s == target {
			// The union is exactly the sample; the new threshold is the
			// global maximum key, found with one all-reduction. Once a
			// threshold exists the union already held k keys at or below
			// it, so s == k means no PE inserted anything: the maximum is
			// the threshold already held and the reduction is skipped.
			if !pe.haveT {
				pe.setThresholdToMax()
			}
			pe.size = s
			return
		}
	default:
		if s <= pe.cfg.KMax {
			// Variable mode (Sec 4.4): let the sample grow until it
			// exceeds KMax; skip the selection entirely.
			pe.size = s
			if !pe.haveT && s >= pe.cfg.KMin {
				// Establish an initial threshold once the range is
				// reachable, so subsequent batches filter: without this
				// the reservoir would keep absorbing every item.
				pe.setThresholdToMax()
			}
			return
		}
		target = pe.cfg.KMax
	}

	// Distributed selection (the "select" bars of Figure 6).
	t1 := clock.Clock()
	seq := chargedSeq{s: distsel.TreeSeq[workload.Item]{T: pe.res}, pe: clock, m: pe.model}
	opt := distsel.Options{
		Pivots: pe.cfg.Pivots,
		// The size all-reduction above already produced the global union
		// size; hand it down so selection skips its own entry reduction.
		KnownN: s,
		RNG:    chargedRNG{src: pe.src, pe: clock, ns: pe.model.RNGNS},
	}
	var res distsel.Result
	if fixed {
		switch pe.cfg.Strategy {
		case SelRandomDist:
			res = distsel.RandomDistKth(pe.comm, seq, target, opt)
		default:
			res = distsel.KthSmallest(pe.comm, seq, target, opt)
		}
	} else {
		res = distsel.ApproxSelect(pe.comm, seq, pe.cfg.KMin, pe.cfg.KMax, opt)
	}
	pe.counter.Selections++
	pe.counter.SelectionRounds += int64(res.Rounds)
	if res.Tail {
		pe.counter.TailSelections++
	}
	pe.timing.SelectNS += clock.Clock() - t1

	// Threshold phase: the local split that discards items above the
	// threshold. Algorithm 1 closes with an all-reduction T := max_j t@j
	// over the per-PE maxima below the cut, but the exact selection above
	// already returned that key: res.Key is an actual stored key and the
	// global maximum at or below itself, so the reduction is pure
	// communication with a known result and the sampler skips it.
	t2 := clock.Clock()
	pe.res.SplitByKey(res.Key)
	clock.Work(pe.model.TreeOpNS(pe.res.Len()) * 2)
	pe.thresh, pe.haveT = res.Key, true
	pe.haveLocalT = false
	pe.size = res.Rank
	pe.timing.ThresholdNS += clock.Clock() - t2
}

// setThresholdToMax sets the global threshold to the maximum key of the
// union of the local reservoirs via one all-reduction.
func (pe *DistPE) setThresholdToMax() {
	clock := pe.comm.Conn
	t0 := clock.Clock()
	local := btree.Key{V: math.Inf(-1)}
	if k, _, ok := pe.res.Max(); ok {
		local = k
		clock.Work(pe.model.TreeOpNS(pe.res.Len()))
	}
	maxKey := coll.AllReduce(pe.comm, local, func(a, b btree.Key) btree.Key {
		if a.Less(b) {
			return b
		}
		return a
	}, 2)
	pe.thresh, pe.haveT = maxKey, true
	pe.haveLocalT = false
	pe.timing.ThresholdNS += clock.Clock() - t0
}

// CollectSample implements Sampler: the union of all local reservoirs,
// gathered at PE 0. It is a collective entry point, so it drains any
// pipelined selection first — the sample handed out is always a
// committed round boundary.
func (pe *DistPE) CollectSample() []workload.Item {
	pe.FinishPending()
	local := make([]workload.Item, 0, pe.res.Len())
	pe.res.ForEach(func(_ btree.Key, it workload.Item) bool {
		local = append(local, it)
		return true
	})
	parts := coll.Gather(pe.comm, 0, local, 2)
	if pe.comm.Rank() != 0 {
		return nil
	}
	var all []workload.Item
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// LocalSample returns this PE's part of the sample (no communication).
func (pe *DistPE) LocalSample() []workload.Item {
	local := make([]workload.Item, 0, pe.res.Len())
	pe.res.ForEach(func(_ btree.Key, it workload.Item) bool {
		local = append(local, it)
		return true
	})
	return local
}

// LocalSize returns the size of this PE's local reservoir.
func (pe *DistPE) LocalSize() int { return pe.res.Len() }

// SampleSize implements Sampler.
func (pe *DistPE) SampleSize() int { return pe.size }

// Pending reports whether a pipelined round's selection collectives are
// still deferred (Config.Pipeline). Drain with FinishPending — a
// collective call — before snapshotting or reading committed state.
func (pe *DistPE) Pending() bool { return pe.pendingSel }

// Seen returns the global number of items processed so far.
func (pe *DistPE) Seen() int64 { return pe.seen }

// Threshold implements Sampler.
func (pe *DistPE) Threshold() (float64, bool) { return pe.thresh.V, pe.haveT }

// Timing implements Sampler.
func (pe *DistPE) Timing() Timing { return pe.timing }

// Counters implements Sampler.
func (pe *DistPE) Counters() Counters { return pe.counter }

// --- charging wrappers -----------------------------------------------------

// chargedSeq charges B+ tree operation costs to the PE's virtual clock
// before forwarding to the underlying sequence.
type chargedSeq struct {
	s  distsel.Seq
	pe transport.Conn
	m  costmodel.Model
}

func (c chargedSeq) Len() int { return c.s.Len() }

func (c chargedSeq) CountLeq(k btree.Key) int {
	c.pe.Work(c.m.TreeOpNS(c.s.Len()))
	return c.s.CountLeq(k)
}

func (c chargedSeq) Select(rank int) (btree.Key, bool) {
	c.pe.Work(c.m.TreeOpNS(c.s.Len()))
	return c.s.Select(rank)
}

// chargedRNG charges a per-variate cost to the PE's virtual clock.
type chargedRNG struct {
	src rng.Source
	pe  transport.Conn
	ns  float64
}

func (c chargedRNG) Uint64() uint64 {
	c.pe.Work(c.ns)
	return c.src.Uint64()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
