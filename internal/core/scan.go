package core

import (
	"math"

	"reservoir/internal/btree"
	"reservoir/internal/parscan"
	"reservoir/internal/rng"
	"reservoir/internal/workload"
)

// Sharded, pipelinable batch scan (DESIGN.md §2.6).
//
// The skip scan of Algorithm 1 is split into a fixed number
// (Config.Shards) of logical shards: shard s scans the contiguous index
// range [s·n/S, (s+1)·n/S) of the batch with its own domain-separated
// RNG substream. Exponential and geometric skips are memoryless, so
// restarting the skip at a chunk boundary leaves the admission process
// distributionally unchanged, and concatenating the per-shard candidate
// lists in shard order recovers global index order without a sort. The
// shard count is part of the sampling stream's identity (it decides which
// stream draws which variate); the machine's core count is not — shards
// may execute on any number of OS threads with identical results.
//
// The scan is also the half of the round that needs no communication, so
// it is split off into an explicit phase: StartScan only reads the
// threshold fixed at the previous CommitScan and mutates only the shard
// streams and a candidate buffer, which lets a node overlap it with the
// still-in-flight selection collectives of the previous round
// (Config.Pipeline). A stale threshold is conservative: it can only
// admit extra candidates, which CommitScan filters against the committed
// threshold before they reach the reservoir — the admission probability
// and key distribution of the survivors match a scan against the
// committed threshold exactly (the truncated-exponential argument in
// DESIGN.md §2.6).

// cand is one scan candidate: the batch index the skip landed on and the
// key variate drawn for it.
type cand struct {
	idx int32
	v   float64
}

// ScanBuf is one round's candidate set. DistPE keeps two and alternates
// (double buffering), so a scan may fill one while the previous round's
// buffer is still being merged, without either reallocating per round.
type ScanBuf struct {
	shards [][]cand // per-shard candidates; concatenation is index order
	draws  []int64  // per-shard RNG variates drawn (virtual-time charge)
	items  []int    // per-shard chunk length
	n      int      // batch length
	mode   byte
}

const (
	// scanInsertAll: no global threshold existed at scan time; every
	// item drew a full key (T = -inf in Algorithm 1).
	scanInsertAll = byte(iota)
	// scanWeighted: exponential weight skips below the scan threshold.
	scanWeighted
	// scanUniform: geometric index skips below the scan threshold.
	scanUniform
)

// shardStreamSeed domain-separates the per-(rank, shard) scan streams
// from each other and from the PE's selection stream (which mixes with a
// different constant in NewDistPE).
func shardStreamSeed(seed uint64, rank, shard int) uint64 {
	return rng.Mix64(seed ^ rng.Mix64(0xa24baed4963ee407^
		uint64(rank+1)*0x9e3779b97f4a7c15^
		uint64(shard+1)*0xd1b54a32d192ed03))
}

// nextBuf returns the next candidate buffer of the double buffer, ready
// for a fresh scan.
func (pe *DistPE) nextBuf() *ScanBuf {
	buf := pe.scanBufs[pe.scanBufIdx]
	if buf == nil {
		s := len(pe.shardSrc)
		buf = &ScanBuf{
			shards: make([][]cand, s),
			draws:  make([]int64, s),
			items:  make([]int, s),
		}
		pe.scanBufs[pe.scanBufIdx] = buf
	}
	pe.scanBufIdx ^= 1
	return buf
}

// StartScan scans batch b against the threshold fixed at the previous
// CommitScan and records the admitted candidates. It mutates only the
// per-shard scan streams and the returned buffer — never the reservoir
// tree, the selection stream, or the transport — so the caller may run
// it concurrently with FinishPending. Hand the buffer to CommitScan on
// the goroutine that owns the collectives.
func (pe *DistPE) StartScan(b workload.Batch) *ScanBuf {
	n := b.Len()
	buf := pe.nextBuf()
	buf.n = n
	switch {
	case !pe.scanHaveT:
		buf.mode = scanInsertAll
	case pe.cfg.Weighted:
		buf.mode = scanWeighted
	default:
		buf.mode = scanUniform
	}

	// A weighted scan materializes the batch's weights, each shard its
	// own range ws[lo:hi], so weight synthesis runs in parallel too.
	var ws []float64
	var wsP *[]float64
	if pe.cfg.Weighted {
		wsP = grabWeights(n)
		ws = *wsP
	}
	t := pe.scanThresh
	S := len(pe.shardSrc)
	parscan.Run(S, func(s int) {
		lo, hi := n*s/S, n*(s+1)/S
		if ws != nil {
			workload.FillWeightsFrom(b, lo, ws[lo:hi])
		}
		src := pe.shardSrc[s]
		out := buf.shards[s][:0]
		var draws int64
		switch buf.mode {
		case scanInsertAll:
			if pe.cfg.Weighted {
				for i := lo; i < hi; i++ {
					out = append(out, cand{int32(i), rng.Exponential(src, ws[i])})
				}
			} else {
				for i := lo; i < hi; i++ {
					out = append(out, cand{int32(i), rng.U01(src)})
				}
			}
			draws = int64(hi - lo)
		case scanWeighted:
			out, draws = scanShardWeighted(src, ws, lo, hi, t, out)
		case scanUniform:
			out, draws = scanShardUniform(src, lo, hi, t, out)
		}
		buf.shards[s] = out
		buf.draws[s] = draws
		buf.items[s] = hi - lo
	})
	if wsP != nil {
		releaseWeights(wsP)
	}
	return buf
}

// scanShardWeighted is one shard's slice of the weighted skip scan: skip
// an Exp(t) amount of weight, record the item the skip lands on with a
// key drawn from (0, t), repeat (Algorithm 1's inner loop). It walks the
// weights in 32-item blocks and jumps a whole block when its weight fits
// in the remaining skip (Sec 5); only a block the skip ends in is walked
// item by item.
func scanShardWeighted(src *rng.Xoshiro256, ws []float64, lo, hi int, t float64, out []cand) ([]cand, int64) {
	const block = 32
	var draws int64
	x := skipWeight(src, t)
	draws++
	for j := lo; j < hi; {
		end := min(j+block, hi)
		// Four partial sums, so the adds do not wait on each other.
		var s0, s1, s2, s3 float64
		bw := ws[j:end]
		for ; len(bw) >= 4; bw = bw[4:] {
			s0 += bw[0]
			s1 += bw[1]
			s2 += bw[2]
			s3 += bw[3]
		}
		for _, w := range bw {
			s0 += w
		}
		if sum := (s0 + s1) + (s2 + s3); x > sum {
			x -= sum
			j = end
			continue
		}
		for ; j < end; j++ {
			x -= ws[j]
			if x <= 0 {
				out = append(out, cand{int32(j), keyBelow(src, ws[j], t)})
				x = skipWeight(src, t)
				draws += 2
			}
		}
	}
	return out, draws
}

// skipWeight draws the weight to skip before the next item whose key falls
// below threshold t: an Exp(t) variate. Keys are never negative, so a
// threshold of exactly 0 — a full reservoir whose largest key is 0, which a
// U01 draw of 1 makes — admits nothing: the skip is +Inf and no variate is
// drawn, so the stream of every positive threshold is unchanged.
func skipWeight(src rng.Source, t float64) float64 {
	if t == 0 {
		return math.Inf(1)
	}
	return rng.Exponential(src, t)
}

// keyBelow draws the key of an item already determined to enter: an
// exponential variate with rate w conditioned on being below t.
func keyBelow(src *rng.Xoshiro256, w, t float64) float64 {
	xlo := math.Exp(-t * w)
	return -math.Log(rng.Uniform(src, xlo, 1)) / w
}

// scanShardUniform is one shard's slice of the uniform scan (Sec 4.3):
// geometric jumps skip whole items in O(1).
func scanShardUniform(src *rng.Xoshiro256, lo, hi int, t float64, out []cand) ([]cand, int64) {
	var draws int64
	j := lo + rng.GeometricSkip(src, t)
	draws++
	for j < hi {
		out = append(out, cand{int32(j), rng.U01CO(src) * t})
		draws += 2
		j += 1 + rng.GeometricSkip(src, t)
	}
	return out, draws
}

// FinishPending runs the deferred selection collectives of the last
// merged round, if any. Under Config.Pipeline every CommitScan defers
// its selection here; every collective entry point (the next round's
// merge, sample collection, snapshotting) drains it first. Draining
// early is stream-neutral: the next scan's threshold was already fixed
// when the round was merged, so the sampling stream is byte-identical
// whether the selection runs overlapped, at the next round, or at a
// drain point in between (DESIGN.md §2.6).
func (pe *DistPE) FinishPending() {
	if !pe.pendingSel {
		return
	}
	pe.pendingSel = false
	n := pe.pendingLen
	pe.pendingLen = 0
	pe.selectAndPrune(n)
}

// CommitScan merges a StartScan buffer into the local reservoir under
// the committed global threshold, then runs the round's selection — or,
// under Config.Pipeline, defers it to the next FinishPending so the next
// scan can overlap it. Callers must FinishPending the previous round
// first.
func (pe *DistPE) CommitScan(b workload.Batch, buf *ScanBuf) {
	clock := pe.comm.Conn
	t0 := clock.Clock()

	// Virtual scan cost: the shards run concurrently, so the elapsed
	// scan time is the slowest shard's (items touched plus variates
	// drawn); the merge below charges its tree inserts individually.
	perItem := pe.model.ScanPerItemNS(buf.n, buf.mode == scanWeighted)
	var slowest float64
	for s := range buf.draws {
		c := float64(float64(buf.items[s])*perItem) + float64(float64(buf.draws[s])*pe.model.RNGNS)
		if c > slowest {
			slowest = c
		}
	}
	clock.Work(slowest)

	if !pe.haveT {
		pe.mergeInsertAll(b, buf)
	} else {
		// A candidate's key was drawn below the threshold current at
		// scan time; re-filter against the threshold committed since —
		// staleness only ever admits extras, never loses an item.
		tv := pe.thresh.V
		for _, sc := range buf.shards {
			for _, c := range sc {
				if c.v >= tv {
					continue
				}
				pe.res.Insert(btree.Key{V: c.v, ID: pe.nextKeyID()}, b.At(int(c.idx)))
				pe.counter.Inserted++
				clock.Work(pe.model.TreeOpNS(pe.res.Len()))
			}
		}
	}
	pe.counter.ItemsProcessed += int64(buf.n)
	pe.timing.ScanNS += clock.Clock() - t0

	if pe.cfg.Pipeline {
		pe.pendingSel = true
		pe.pendingLen = buf.n
	} else {
		pe.selectAndPrune(buf.n)
	}
	// The NEXT scan's threshold is fixed here, at the round's single
	// sequential point — this is what makes early FinishPending drains
	// stream-neutral.
	pe.scanThresh, pe.scanHaveT = pe.thresh.V, pe.haveT
}

// mergeInsertAll merges a scanInsertAll buffer while no global
// threshold exists (T = -inf in Algorithm 1), subject to the Sec 5
// local-thresholding optimization: once the local reservoir outgrows
// the prune mark it keeps only the cap smallest keys, and later keys
// above the cap-th are dropped. It is never pruned below cap, so the
// union of all local reservoirs keeps at least cap items.
func (pe *DistPE) mergeInsertAll(b workload.Batch, buf *ScanBuf) {
	n := buf.n
	cap := pe.cfg.sampleCap()
	useLocalT := pe.cfg.LocalThreshold && n >= maxInt(3*cap/2, cap+500)
	prune := maxInt(11*cap/10, cap+250)
	clock := pe.comm.Conn
	for _, sc := range buf.shards {
		for _, c := range sc {
			k := btree.Key{V: c.v, ID: pe.nextKeyID()}
			if useLocalT && pe.haveLocalT && pe.localThresh.Less(k) {
				continue
			}
			pe.res.Insert(k, b.At(int(c.idx)))
			pe.counter.Inserted++
			clock.Work(pe.model.TreeOpNS(pe.res.Len()))
			if useLocalT && pe.res.Len() > prune {
				tk, _, _ := pe.res.Select(cap)
				pe.res.SplitAtRank(cap)
				pe.localThresh, pe.haveLocalT = tk, true
				clock.Work(pe.model.TreeOpNS(pe.res.Len()) * 2)
			}
		}
	}
}
