// Package distsel implements distributed selection from sorted sequences
// (paper Sec 3.3): every PE holds a locally sorted sequence (its reservoir
// B+ tree) and the PEs jointly determine the key with a given global rank.
//
// Implemented variants:
//
//   - KthSmallest: the universally applicable algorithm of Sec 3.3.3 with
//     single- or multi-pivot sampling ("ours" / "ours-d" in the paper's
//     experiments). Pivots are the globally smallest keys of a Bernoulli
//     sample of the active items (success probability d/k̂, or mirrored at
//     d/(N−k+1) when the target rank is in the upper half), found with one
//     all-reduction; one more all-reduction counts items per pivot, then
//     the algorithm accepts a pivot or recurses on the bracketing interval.
//     As soon as the target lies within baseCase keys of the top of the
//     active range, the tail all-reduction finishes it instead (below).
//   - ApproxSelect (amsSelect, Sec 3.3.2): like KthSmallest but accepts any
//     pivot whose rank falls in [kLo, kHi], giving expected-constant
//     recursion depth when kHi−kLo = Ω(k/d).
//   - RandomDistKth (Sec 3.3.1): for randomly distributed inputs, brackets
//     the target with two pivots from a √p-sized global sample, then
//     finishes exactly within the bracket.
//
// Every variant ends in one exact finisher, the tail all-reduction: the
// key of rank t among n active keys is the smallest of the n−t+1 largest,
// so each PE contributes its n−t+1 largest active keys and one
// all-reduction keeping the n−t+1 largest returns it on every PE, with no
// random draw (nearer the bottom, mirrored: the largest of the t
// smallest). Selection is exact, so finishing this way selects the same
// key the pivot recursion would have (paper Sec 3.3). In the sampler's
// steady state the union holds k plus a few new keys, so the tail finishes
// most selections in one collective and zero sampling rounds.
//
// All functions are SPMD-collective: every PE must call them with the same
// parameters in the same order. Local sequence operations are abstracted by
// Seq, so callers can wrap them with virtual-time charging.
//
// internal/core's DistPE drives these selections once per mini-batch round
// to find the new global insertion threshold; their recursion depth is the
// "selection_rounds" counter surfaced by the service stats API and the
// Sec 6.3 depth experiment of internal/bench.
package distsel

import (
	"fmt"
	"math"
	"sort"

	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/rng"
)

// Seq is one PE's locally sorted key sequence.
type Seq interface {
	// Len returns the number of local keys.
	Len() int
	// CountLeq returns the number of local keys <= k.
	CountLeq(k btree.Key) int
	// Select returns the local key with the given 1-based rank.
	Select(rank int) (btree.Key, bool)
}

// TreeSeq adapts a reservoir B+ tree to Seq.
type TreeSeq[V any] struct{ T *btree.Tree[V] }

// Len implements Seq.
func (s TreeSeq[V]) Len() int { return s.T.Len() }

// CountLeq implements Seq.
func (s TreeSeq[V]) CountLeq(k btree.Key) int { return s.T.CountLeq(k) }

// Select implements Seq.
func (s TreeSeq[V]) Select(rank int) (btree.Key, bool) {
	k, _, ok := s.T.Select(rank)
	return k, ok
}

// KeySlice adapts an ascending-sorted []btree.Key to Seq.
type KeySlice []btree.Key

// Len implements Seq.
func (s KeySlice) Len() int { return len(s) }

// CountLeq implements Seq.
func (s KeySlice) CountLeq(k btree.Key) int {
	return sort.Search(len(s), func(i int) bool { return k.Less(s[i]) })
}

// Select implements Seq.
func (s KeySlice) Select(rank int) (btree.Key, bool) {
	if rank < 1 || rank > len(s) {
		return btree.Key{}, false
	}
	return s[rank-1], true
}

// Options tunes the selection algorithms.
type Options struct {
	// Pivots is the number of pivots d used per round (1 = the paper's
	// "ours", 8 = "ours-8"). Defaults to 1.
	Pivots int
	// KnownN, when positive, is the caller-supplied global size of the
	// full sequence union (sum over PEs of Seq.CountLeq(MaxKey)). The
	// sampler's selection step already holds this from its size
	// all-reduction; passing it here skips a redundant collective at
	// selection entry. Every PE must pass the same value (SPMD).
	KnownN int
	// RNG is this PE's private random source (required).
	RNG rng.Source
}

const (
	// baseCase bounds the work of the tail all-reduction. A selection
	// finishes with it once the active range holds at most baseCase keys
	// (2*Pivots with more than baseCase/2 pivots), or, for exact
	// selection, once the target rank lies within baseCase keys of the
	// top of the active range.
	baseCase = 128
	// maxRounds bounds the sampling recursion; when exceeded, the
	// algorithm finishes with the tail all-reduction.
	maxRounds = 60
)

func (o Options) withDefaults() Options {
	if o.Pivots < 1 {
		o.Pivots = 1
	}
	if o.RNG == nil {
		panic("distsel: Options.RNG is required")
	}
	return o
}

// Result describes a completed selection.
type Result struct {
	// Key is the selected key; its global rank is Rank.
	Key btree.Key
	// Rank is the realized global rank (== k for exact selection, within
	// [kLo, kHi] for approximate selection).
	Rank int
	// Rounds is the number of pivot-sampling rounds (the recursion depth
	// of Sec 6.3's depth study); a selection the tail all-reduction
	// finishes right away took 0.
	Rounds int
	// Tail reports whether the tail all-reduction finished the selection.
	Tail bool
}

const keyWords = 2 // a Key is one float64 plus one uint64

// KthSmallest selects the key with global rank k (1-based) over the union
// of all PEs' sequences (paper Sec 3.3.3).
func KthSmallest(c *coll.Comm, s Seq, k int, opt Options) Result {
	return selectRange(c, s, k, k, btree.MinKey, btree.MaxKey, 0, opt.withDefaults())
}

// ApproxSelect selects a key whose global rank lies in [kLo, kHi]
// (amsSelect, paper Sec 3.3.2). With kHi-kLo = Ω(k/d) the expected number
// of rounds is constant.
func ApproxSelect(c *coll.Comm, s Seq, kLo, kHi int, opt Options) Result {
	if kLo > kHi {
		panic(fmt.Sprintf("distsel: invalid approximate range [%d, %d]", kLo, kHi))
	}
	return selectRange(c, s, kLo, kHi, btree.MinKey, btree.MaxKey, 0, opt.withDefaults())
}

// selectRange is the shared engine: select a key whose global rank (within
// the whole sequence) lies in [kLo, kHi], restricted to the key interval
// (lo, hi], where offset is the global number of keys <= lo.
func selectRange(c *coll.Comm, s Seq, kLo, kHi int, lo, hi btree.Key, offset int, opt Options) Result {
	d := opt.Pivots
	loCount := s.CountLeq(lo)
	hiCount := s.CountLeq(hi)
	cnt := hiCount - loCount
	// The initial call spans the whole key space, so the global active
	// count is the union size — use the caller's value when it has one
	// (the sampler just reduced it) instead of reducing it again.
	var n int
	if opt.KnownN > 0 && lo == btree.MinKey && hi == btree.MaxKey {
		n = opt.KnownN
	} else {
		n = coll.AllReduce(c, cnt, coll.SumInt, 1)
	}
	rounds := 0
	for {
		tLo, tHi := kLo-offset, kHi-offset
		if tLo < 1 || tLo > n {
			panic(fmt.Sprintf("distsel: target rank %d outside active range of %d items", tLo, n))
		}
		if tHi > n {
			tHi = n
		}
		// An exact target near the top of the active range costs the tail
		// all-reduction less than another sampling round; a small active
		// range, or one the recursion failed to narrow, ends there too.
		if n <= max(baseCase, 2*d) || rounds >= maxRounds || (kLo == kHi && n-tLo+1 <= baseCase) {
			r := tailSelect(c, s, loCount, cnt, n, tLo)
			r.Rank += offset
			r.Rounds = rounds
			return r
		}
		rounds++

		// Sample pivots from the cheaper side (paper Sec 3.3.3): the
		// globally smallest keys of a Bernoulli(d/tHi) sample, or the
		// globally largest of a Bernoulli(d/(n-tLo+1)) sample when the
		// target rank is in the upper half.
		fromLow := tHi <= n-tLo+1
		var q float64
		if fromLow {
			q = float64(d) / float64(tHi)
		} else {
			q = float64(d) / float64(n-tLo+1)
		}
		if q > 1 {
			q = 1
		}
		cands := sampleLocal(s, loCount, cnt, q, opt.RNG)
		if !fromLow {
			// Keep only the d largest local candidates (ascending order).
			if len(cands) > d {
				cands = cands[len(cands)-d:]
			}
		} else if len(cands) > d {
			cands = cands[:d]
		}
		var pivots []btree.Key
		if fromLow {
			pivots = coll.AllReduce(c, cands, coll.MergeSmallest(d, btree.Key.Less), keyWords*d)
		} else {
			pivots = coll.AllReduce(c, cands, mergeLargest(d), keyWords*d)
		}
		if len(pivots) == 0 {
			// No PE sampled anything (can happen when q is tiny and the
			// active set is spread thin); try again.
			continue
		}

		// Count active keys <= each pivot, globally.
		counts := make([]int, len(pivots))
		for j, p := range pivots {
			counts[j] = s.CountLeq(p) - loCount
		}
		g := coll.AllReduce(c, counts, coll.SumInts, len(counts))

		// Accept a pivot whose rank lands in the target window.
		for j := range pivots {
			if g[j] >= tLo && g[j] <= tHi {
				return Result{Key: pivots[j], Rank: offset + g[j], Rounds: rounds}
			}
		}
		// Otherwise narrow to the bracketing interval. g is ascending
		// because pivots are.
		below, above := -1, -1
		for j := range pivots {
			if g[j] < tLo {
				below = j
			} else if g[j] > tHi {
				above = j
				break
			}
		}
		if below >= 0 {
			lo = pivots[below]
			offset += g[below]
			loCount = s.CountLeq(lo)
			n -= g[below]
		}
		if above >= 0 {
			hi = pivots[above]
			hiCount = s.CountLeq(hi)
			n = g[above]
			if below >= 0 {
				n = g[above] - g[below]
			}
		}
		cnt = hiCount - loCount
	}
}

// sampleLocal draws a Bernoulli(q) sample of the local active keys (local
// ranks loCount+1 .. loCount+cnt) using geometric skips in rank space, so
// the local work is proportional to the number of sampled items times a
// tree operation. The result is ascending.
func sampleLocal(s Seq, loCount, cnt int, q float64, src rng.Source) []btree.Key {
	var out []btree.Key
	r := 0
	for {
		r += 1 + rng.GeometricSkip(src, q)
		if r > cnt {
			return out
		}
		k, ok := s.Select(loCount + r)
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

// mergeLargest keeps the d largest keys, as an ascending slice.
func mergeLargest(d int) coll.Op[[]btree.Key] {
	return func(a, b []btree.Key) []btree.Key {
		// Merge from the back, keeping d largest.
		out := make([]btree.Key, 0, min(len(a)+len(b), d))
		i, j := len(a)-1, len(b)-1
		for len(out) < d && (i >= 0 || j >= 0) {
			switch {
			case i < 0:
				out = append(out, b[j])
				j--
			case j < 0:
				out = append(out, a[i])
				i--
			case a[i].Less(b[j]):
				out = append(out, b[j])
				j--
			default:
				out = append(out, a[i])
				i--
			}
		}
		// out is descending; reverse to ascending.
		for x, y := 0, len(out)-1; x < y; x, y = x+1, y-1 {
			out[x], out[y] = out[y], out[x]
		}
		return out
	}
}

// tailSelect is the exact finisher: it selects the key of rank t among
// the n active keys (local ranks loCount+1 .. loCount+cnt) from the
// nearer tail of the active range. Near the top it is the smallest of the
// n−t+1 largest keys: each PE contributes its largest min(cnt, n−t+1)
// active keys, read off the right edge of its active range, and one
// all-reduction keeps the n−t+1 largest of all of them. Near the bottom
// it is, mirrored, the largest of the t smallest. Rank in the returned
// Result is relative to the active range.
func tailSelect(c *coll.Comm, s Seq, loCount, cnt, n, t int) Result {
	if m := n - t + 1; m <= t {
		top := coll.AllReduceList(c, localKeys(s, loCount+cnt-min(m, cnt)+1, loCount+cnt), mergeLargest(m), keyWords)
		return Result{Key: top[0], Rank: t, Tail: true}
	}
	low := coll.AllReduceList(c, localKeys(s, loCount+1, loCount+min(t, cnt)), coll.MergeSmallest(t, btree.Key.Less), keyWords)
	return Result{Key: low[t-1], Rank: t, Tail: true}
}

// localKeys returns the local keys of ranks from..to, ascending.
func localKeys(s Seq, from, to int) []btree.Key {
	out := make([]btree.Key, 0, to-from+1)
	for r := from; r <= to; r++ {
		k, _ := s.Select(r)
		out = append(out, k)
	}
	return out
}

// RandomDistKth selects the globally k-th smallest key assuming the keys
// are randomly distributed over the PEs (paper Sec 3.3.1): a global sample
// of ~√p keys brackets the target rank with two pivots with high
// probability, after which the engine finishes within the (small) bracket.
func RandomDistKth(c *coll.Comm, s Seq, k int, opt Options) Result {
	opt = opt.withDefaults()
	cnt := s.Len()
	n := opt.KnownN
	if n <= 0 {
		n = coll.AllReduce(c, cnt, coll.SumInt, 1)
	}
	if k < 1 || k > n {
		panic(fmt.Sprintf("distsel: rank %d outside 1..%d", k, n))
	}
	if n <= max(baseCase, 2*opt.Pivots) {
		return tailSelect(c, s, 0, cnt, n, k)
	}
	m := int(math.Ceil(math.Sqrt(float64(c.P())))) * 4
	q := float64(m) / float64(n)
	cands := sampleLocal(s, 0, cnt, q, opt.RNG)
	parts := coll.Gather(c, 0, cands, keyWords)
	// Root picks bracketing pivots around the sample position of rank k;
	// a side it cannot bracket stays at MinKey or MaxKey.
	br := []btree.Key{btree.MinKey, btree.MaxKey}
	if c.Rank() == 0 {
		var all []btree.Key
		for _, p := range parts {
			all = append(all, p...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Less(all[j]) })
		if len(all) > 0 {
			pos := float64(float64(k) / float64(n) * float64(len(all)))
			delta := float64(2*math.Sqrt(float64(len(all)))) + 1
			loIdx := int(pos - delta)
			hiIdx := int(pos + delta)
			if loIdx >= 1 {
				br[0] = all[loIdx-1]
			}
			if hiIdx <= len(all) {
				br[1] = all[hiIdx-1]
			}
		}
	}
	// Charged as two keys plus one word, the size simnet's recorded
	// virtual times for this broadcast assume.
	br = coll.Broadcast(c, 0, br, 2*keyWords+1)
	lo, hi := br[0], br[1]
	counts := []int{s.CountLeq(lo), s.CountLeq(hi)}
	g := coll.AllReduce(c, counts, coll.SumInts, 2)
	if k <= g[0] || k > g[1] {
		// Bracket missed (low probability): fall back to the full-range
		// exact engine.
		r := selectRange(c, s, k, k, btree.MinKey, btree.MaxKey, 0, opt)
		r.Rounds++ // account for the attempted bracketing round
		return r
	}
	r := selectRange(c, s, k, k, lo, hi, g[0], opt)
	r.Rounds++
	return r
}
