package distsel

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/rng"
	"reservoir/internal/simnet"
)

// buildInput distributes n random keys over p PEs (unevenly when uneven is
// set) and returns per-PE ascending key slices plus the global sorted order.
func buildInput(r *rand.Rand, p, n int, uneven bool) (local [][]btree.Key, global []btree.Key) {
	local = make([][]btree.Key, p)
	for i := 0; i < n; i++ {
		k := btree.Key{V: r.Float64(), ID: uint64(i)}
		pe := r.Intn(p)
		if uneven {
			// Skew assignment toward low-rank PEs.
			pe = r.Intn(r.Intn(p) + 1)
		}
		local[pe] = append(local[pe], k)
		global = append(global, k)
	}
	for _, l := range local {
		sort.Slice(l, func(i, j int) bool { return l[i].Less(l[j]) })
	}
	sort.Slice(global, func(i, j int) bool { return global[i].Less(global[j]) })
	return local, global
}

// runSelection executes one SPMD selection on a fresh cluster and returns
// PE 0's result after checking all PEs agree.
func runSelection(t *testing.T, p int, body func(c *coll.Comm, pe int) Result) Result {
	t.Helper()
	cl := simnet.NewCluster(p, simnet.DefaultCost())
	results := make([]Result, p)
	var mu sync.Mutex
	cl.Parallel(func(pe *simnet.PE) {
		c := coll.New(pe)
		r := body(c, pe.ID())
		mu.Lock()
		results[pe.ID()] = r
		mu.Unlock()
	})
	for i := 1; i < p; i++ {
		if results[i].Key != results[0].Key || results[i].Rank != results[0].Rank {
			t.Fatalf("PE %d disagrees: %+v vs %+v", i, results[i], results[0])
		}
	}
	return results[0]
}

func TestKthSmallestExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 5, 8, 16} {
		for _, n := range []int{1, 10, 500, 3000} {
			local, global := buildInput(r, p, n, false)
			for _, k := range []int{1, n / 3, n / 2, n - 1, n} {
				if k < 1 {
					continue
				}
				for _, d := range []int{1, 8} {
					res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
						opt := Options{Pivots: d, RNG: rng.NewXoshiro256(uint64(100 + pe))}
						return KthSmallest(c, KeySlice(local[pe]), k, opt)
					})
					if res.Key != global[k-1] {
						t.Fatalf("p=%d n=%d k=%d d=%d: got %v, want %v", p, n, k, d, res.Key, global[k-1])
					}
					if res.Rank != k {
						t.Fatalf("p=%d n=%d k=%d d=%d: rank %d", p, n, k, d, res.Rank)
					}
				}
			}
		}
	}
}

func TestKthSmallestUnevenDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p, n := 8, 4000
	local, global := buildInput(r, p, n, true)
	for _, k := range []int{1, 7, n / 2, n} {
		res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			opt := Options{Pivots: 2, RNG: rng.NewXoshiro256(uint64(7 + pe))}
			return KthSmallest(c, KeySlice(local[pe]), k, opt)
		})
		if res.Key != global[k-1] {
			t.Fatalf("uneven k=%d: got %v, want %v", k, res.Key, global[k-1])
		}
	}
}

func TestKthSmallestOnTrees(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p, n := 4, 2000
	local, global := buildInput(r, p, n, false)
	trees := make([]*btree.Tree[int], p)
	for pe := range trees {
		trees[pe] = btree.New[int]()
		for _, k := range local[pe] {
			trees[pe].Insert(k, 0)
		}
	}
	k := n / 4
	res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
		opt := Options{Pivots: 4, RNG: rng.NewXoshiro256(uint64(13 + pe))}
		return KthSmallest(c, TreeSeq[int]{T: trees[pe]}, k, opt)
	})
	if res.Key != global[k-1] {
		t.Fatalf("tree-backed: got %v, want %v", res.Key, global[k-1])
	}
}

func TestApproxSelectWithinRange(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	p, n := 8, 5000
	local, global := buildInput(r, p, n, false)
	for _, window := range [][2]int{{100, 200}, {1000, 2000}, {4500, 5000}, {42, 42}} {
		kLo, kHi := window[0], window[1]
		res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			opt := Options{Pivots: 4, RNG: rng.NewXoshiro256(uint64(17 + pe))}
			return ApproxSelect(c, KeySlice(local[pe]), kLo, kHi, opt)
		})
		if res.Rank < kLo || res.Rank > kHi {
			t.Fatalf("[%d,%d]: realized rank %d outside window", kLo, kHi, res.Rank)
		}
		if res.Key != global[res.Rank-1] {
			t.Fatalf("[%d,%d]: key %v does not match reported rank %d", kLo, kHi, res.Key, res.Rank)
		}
	}
}

func TestApproxSelectFasterThanExact(t *testing.T) {
	// A wide window must not need more rounds than exact selection;
	// averaged over repetitions it should need strictly fewer.
	r := rand.New(rand.NewSource(5))
	p, n := 8, 20000
	local, _ := buildInput(r, p, n, false)
	k := 5000
	exactRounds, approxRounds := 0, 0
	const reps = 10
	for rep := 0; rep < reps; rep++ {
		seed := uint64(1000 * (rep + 1))
		re := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			return KthSmallest(c, KeySlice(local[pe]), k,
				Options{Pivots: 1, RNG: rng.NewXoshiro256(seed + uint64(pe))})
		})
		ra := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			return ApproxSelect(c, KeySlice(local[pe]), k, 2*k,
				Options{Pivots: 1, RNG: rng.NewXoshiro256(seed + uint64(pe))})
		})
		exactRounds += re.Rounds
		approxRounds += ra.Rounds
	}
	if approxRounds >= exactRounds {
		t.Errorf("approximate selection used %d total rounds, exact %d; expected fewer", approxRounds, exactRounds)
	}
}

func TestMultiPivotReducesRounds(t *testing.T) {
	// Sec 6.3 reports that 8 pivots reduce average recursion depth by
	// roughly 2.5x for large k. Check the direction with a safe margin.
	r := rand.New(rand.NewSource(6))
	p, n := 8, 30000
	local, _ := buildInput(r, p, n, false)
	k := 10000
	rounds1, rounds8 := 0, 0
	const reps = 12
	for rep := 0; rep < reps; rep++ {
		seed := uint64(500 * (rep + 1))
		r1 := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			return KthSmallest(c, KeySlice(local[pe]), k,
				Options{Pivots: 1, RNG: rng.NewXoshiro256(seed + uint64(pe))})
		})
		r8 := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			return KthSmallest(c, KeySlice(local[pe]), k,
				Options{Pivots: 8, RNG: rng.NewXoshiro256(seed + uint64(pe))})
		})
		rounds1 += r1.Rounds
		rounds8 += r8.Rounds
	}
	if rounds8 >= rounds1 {
		t.Errorf("8-pivot rounds %d not below single-pivot rounds %d", rounds8, rounds1)
	}
}

func TestRandomDistKth(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, p := range []int{4, 9, 16} {
		n := 6000
		local, global := buildInput(r, p, n, false)
		for _, k := range []int{1, 100, n / 2, n} {
			res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
				opt := Options{Pivots: 1, RNG: rng.NewXoshiro256(uint64(23 + pe))}
				return RandomDistKth(c, KeySlice(local[pe]), k, opt)
			})
			if res.Key != global[k-1] || res.Rank != k {
				t.Fatalf("p=%d k=%d: got (%v, %d), want (%v, %d)", p, k, res.Key, res.Rank, global[k-1], k)
			}
		}
	}
}

func TestSelectionWithEmptyPEs(t *testing.T) {
	// Some PEs hold no items at all.
	r := rand.New(rand.NewSource(9))
	p, n := 6, 1000
	local := make([][]btree.Key, p)
	var global []btree.Key
	for i := 0; i < n; i++ {
		k := btree.Key{V: r.Float64(), ID: uint64(i)}
		local[i%2] = append(local[i%2], k) // only PEs 0 and 1 have data
		global = append(global, k)
	}
	for pe := range local {
		sort.Slice(local[pe], func(i, j int) bool { return local[pe][i].Less(local[pe][j]) })
	}
	sort.Slice(global, func(i, j int) bool { return global[i].Less(global[j]) })
	k := 123
	res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
		opt := Options{Pivots: 2, RNG: rng.NewXoshiro256(uint64(41 + pe))}
		return KthSmallest(c, KeySlice(local[pe]), k, opt)
	})
	if res.Key != global[k-1] {
		t.Fatalf("empty-PE case: got %v, want %v", res.Key, global[k-1])
	}
}

func TestKeySliceSeq(t *testing.T) {
	ks := KeySlice{{V: 1}, {V: 2}, {V: 3}}
	if ks.Len() != 3 {
		t.Fatal("Len")
	}
	if got := ks.CountLeq(btree.Key{V: 2, ID: 9}); got != 2 {
		t.Fatalf("CountLeq = %d", got)
	}
	if k, ok := ks.Select(2); !ok || k.V != 2 {
		t.Fatalf("Select(2) = %v %v", k, ok)
	}
	if _, ok := ks.Select(0); ok {
		t.Fatal("Select(0) should fail")
	}
	if _, ok := ks.Select(4); ok {
		t.Fatal("Select(4) should fail")
	}
}

func TestOptionsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing RNG")
		}
	}()
	Options{}.withDefaults()
}

// countingRNG counts the variates drawn from it.
type countingRNG struct {
	src   rng.Source
	draws *int
}

func (c countingRNG) Uint64() uint64 {
	*c.draws++
	return c.src.Uint64()
}

// tailInput spreads n keys over p PEs for the tail tests. PE 0 holds no
// keys when p > 1, the last PE holds at most two, and every tenth key
// repeats the previous V, so ties are broken by ID alone.
func tailInput(r *rand.Rand, p, n int) (local [][]btree.Key, global []btree.Key) {
	local = make([][]btree.Key, p)
	v := 0.0
	for i := 0; i < n; i++ {
		if i%10 != 9 {
			v = r.Float64()
		}
		k := btree.Key{V: v, ID: uint64(i)}
		pe := 0
		if p > 1 {
			pe = 1 + r.Intn(p-1)
			if pe == p-1 && p > 2 && len(local[pe]) >= 2 {
				pe = 1
			}
		}
		local[pe] = append(local[pe], k)
		global = append(global, k)
	}
	for _, l := range local {
		sort.Slice(l, func(i, j int) bool { return l[i].Less(l[j]) })
	}
	sort.Slice(global, func(i, j int) bool { return global[i].Less(global[j]) })
	return local, global
}

// TestTailSelectAgainstSortedUnion checks the exact finisher against the
// sorted union, from both tails, on the whole key range and on an active
// range strictly inside it.
func TestTailSelectAgainstSortedUnion(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, p := range []int{1, 3, 4, 5} {
		for _, m := range []int{1, 2, 127, 128, 129} {
			// Upper tail: rank t = n−m+1 with t >= m. Lower tail: rank m
			// with n−m+1 > m.
			for _, n := range []int{2*m - 1, 2*m + 40} {
				for _, t0 := range []int{n - m + 1, m} {
					if t0 < 1 {
						continue
					}
					for _, inner := range []bool{false, true} {
						local, global := tailInput(r, p, n+20)
						// The active range drops the 10 smallest and 10
						// largest keys when inner, else the 20 largest.
						lo, hi, offset := btree.MinKey, global[n-1], 0
						if inner {
							lo, hi, offset = global[9], global[n+9], 10
						}
						tt := t0
						res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
							s := KeySlice(local[pe])
							loCount := s.CountLeq(lo)
							return tailSelect(c, s, loCount, s.CountLeq(hi)-loCount, n, tt)
						})
						if want := global[offset+tt-1]; res.Key != want || res.Rank != tt || !res.Tail {
							t.Fatalf("p=%d m=%d n=%d t=%d inner=%v: got %+v, want key %v rank %d",
								p, m, n, tt, inner, res, want, tt)
						}
					}
				}
			}
		}
	}
}

// TestKthSmallestTailNearTop checks that an exact selection within
// baseCase keys of the top finishes with the tail all-reduction, drawing
// no variate and running no sampling round, and that one rank further
// down it samples as before.
func TestKthSmallestTailNearTop(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	p, n := 4, 3000
	local, global := buildInput(r, p, n, false)
	for _, m := range []int{1, 2, baseCase, baseCase + 1} {
		k := n - m + 1
		draws := make([]int, p)
		res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			opt := Options{KnownN: n, RNG: countingRNG{src: rng.NewXoshiro256(uint64(pe + 1)), draws: &draws[pe]}}
			return KthSmallest(c, KeySlice(local[pe]), k, opt)
		})
		if res.Key != global[k-1] || res.Rank != k {
			t.Fatalf("k=%d: got (%v, %d), want (%v, %d)", k, res.Key, res.Rank, global[k-1], k)
		}
		total := draws[0] + draws[1] + draws[2] + draws[3]
		if m <= baseCase && (res.Rounds != 0 || total != 0 || !res.Tail) ||
			m > baseCase && (res.Rounds == 0 || total == 0) {
			t.Fatalf("m=%d: rounds %d, %d variates drawn, tail %v", m, res.Rounds, total, res.Tail)
		}
	}
}

// TestApproxSelectBaseCaseReturnsLowRank checks that an approximate
// selection over at most baseCase keys finishes exactly at rank kLo.
func TestApproxSelectBaseCaseReturnsLowRank(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	p, n := 5, baseCase
	local, global := buildInput(r, p, n, true)
	for _, w := range [][2]int{{1, 3}, {40, 90}, {100, 128}} {
		res := runSelection(t, p, func(c *coll.Comm, pe int) Result {
			return ApproxSelect(c, KeySlice(local[pe]), w[0], w[1], Options{Pivots: 4, RNG: rng.NewXoshiro256(uint64(pe))})
		})
		if res.Rank != w[0] || res.Key != global[w[0]-1] || res.Rounds != 0 || !res.Tail {
			t.Fatalf("[%d,%d]: got %+v, want rank %d key %v", w[0], w[1], res, w[0], global[w[0]-1])
		}
	}
}

// TestTailSelectSendsNearerTail checks that the tail all-reduction reads
// from the nearer tail: selecting the largest or the smallest of 1,000
// keys moves one key per message, never the other 999.
func TestTailSelectSendsNearerTail(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	p, n := 4, 1000
	local, global := buildInput(r, p, n, false)
	for _, k := range []int{1, n} {
		cl := simnet.NewCluster(p, simnet.DefaultCost())
		got := make([]btree.Key, p)
		cl.Parallel(func(pe *simnet.PE) {
			s := KeySlice(local[pe.ID()])
			got[pe.ID()] = tailSelect(coll.New(pe), s, 0, s.Len(), n, k).Key
		})
		for pe, key := range got {
			if key != global[k-1] {
				t.Fatalf("k=%d: PE %d got %v, want %v", k, pe, key, global[k-1])
			}
		}
		if st := cl.Stats(); st.Words != keyWords*st.Messages {
			t.Fatalf("k=%d: %d words in %d messages, want %d per message", k, st.Words, st.Messages, keyWords)
		}
	}
}
