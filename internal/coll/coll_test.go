package coll

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"reservoir/internal/simnet"
)

// clusterSizes covers powers of two, primes, and odd sizes.
var clusterSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17, 32, 33}

// runSPMD executes body on a fresh cluster of p PEs, giving each PE its own
// communicator.
func runSPMD(p int, body func(c *Comm)) *simnet.Cluster {
	cl := simnet.NewCluster(p, simnet.DefaultCost())
	cl.Parallel(func(pe *simnet.PE) {
		body(New(pe))
	})
	return cl
}

func TestBroadcast(t *testing.T) {
	for _, p := range clusterSizes {
		for root := 0; root < p; root += 1 + p/3 {
			var mu sync.Mutex
			got := make([]int, p)
			runSPMD(p, func(c *Comm) {
				val := -1
				if c.Rank() == root {
					val = 4242
				}
				out := Broadcast(c, root, val, 1)
				mu.Lock()
				got[c.Rank()] = out
				mu.Unlock()
			})
			for r, v := range got {
				if v != 4242 {
					t.Fatalf("p=%d root=%d: PE %d got %d", p, root, r, v)
				}
			}
		}
	}
}

func TestReduceSum(t *testing.T) {
	for _, p := range clusterSizes {
		for root := 0; root < p; root += 1 + p/2 {
			var mu sync.Mutex
			var rootGot int
			runSPMD(p, func(c *Comm) {
				out := Reduce(c, root, c.Rank()+1, SumInt, 1)
				if c.Rank() == root {
					mu.Lock()
					rootGot = out
					mu.Unlock()
				}
			})
			want := p * (p + 1) / 2
			if rootGot != want {
				t.Fatalf("p=%d root=%d: sum = %d, want %d", p, root, rootGot, want)
			}
		}
	}
}

func TestReduceNonCommutativeOrder(t *testing.T) {
	// String concatenation is associative but not commutative; Reduce must
	// combine in rank order (relative to the root).
	p := 8
	var got string
	var mu sync.Mutex
	runSPMD(p, func(c *Comm) {
		out := Reduce(c, 0, fmt.Sprintf("%d", c.Rank()), func(a, b string) string { return a + b }, 1)
		if c.Rank() == 0 {
			mu.Lock()
			got = out
			mu.Unlock()
		}
	})
	if got != "01234567" {
		t.Fatalf("rank-ordered reduce = %q, want 01234567", got)
	}
}

func TestAllReduce(t *testing.T) {
	for _, p := range clusterSizes {
		var mu sync.Mutex
		sums := make([]int, p)
		maxs := make([]float64, p)
		runSPMD(p, func(c *Comm) {
			s := AllReduce(c, c.Rank()+1, SumInt, 1)
			m := AllReduce(c, float64(c.Rank()), func(a, b float64) float64 { return max(a, b) }, 1)
			mu.Lock()
			sums[c.Rank()] = s
			maxs[c.Rank()] = m
			mu.Unlock()
		})
		want := p * (p + 1) / 2
		for r := 0; r < p; r++ {
			if sums[r] != want {
				t.Fatalf("p=%d: PE %d allreduce sum = %d, want %d", p, r, sums[r], want)
			}
			if maxs[r] != float64(p-1) {
				t.Fatalf("p=%d: PE %d allreduce max = %v, want %v", p, r, maxs[r], float64(p-1))
			}
		}
	}
}

func TestAllReduceVector(t *testing.T) {
	p := 6
	var mu sync.Mutex
	results := make([][]int, p)
	runSPMD(p, func(c *Comm) {
		v := []int{c.Rank(), 1, -c.Rank()}
		out := AllReduce(c, append([]int(nil), v...), SumInts, 3)
		mu.Lock()
		results[c.Rank()] = out
		mu.Unlock()
	})
	want := []int{15, 6, -15}
	for r, res := range results {
		for i := range want {
			if res[i] != want[i] {
				t.Fatalf("PE %d vector allreduce = %v, want %v", r, res, want)
			}
		}
	}
}

func TestAllReduceListChargesCarriedItems(t *testing.T) {
	// Only PE 1 holds items, so with p = 2 PE 0 sends an empty slice
	// (0 words, which simnet charges as its 1-word minimum) and PE 1 its
	// 3 items (3 words); both end with the merge.
	cl := simnet.NewCluster(2, simnet.DefaultCost())
	results := make([][]int, 2)
	cl.Parallel(func(pe *simnet.PE) {
		c := New(pe)
		var v []int
		if c.Rank() == 1 {
			v = []int{4, 7, 9}
		}
		results[c.Rank()] = AllReduceList(c, v, MergeSmallest(2, func(a, b int) bool { return a < b }), 1)
	})
	for r, res := range results {
		if len(res) != 2 || res[0] != 4 || res[1] != 7 {
			t.Fatalf("PE %d list allreduce = %v, want [4 7]", r, res)
		}
	}
	if st := cl.Stats(); st.Messages != 2 || st.Words != 4 {
		t.Fatalf("traffic = %d messages, %d words; want 2, 4", st.Messages, st.Words)
	}
}

func TestGather(t *testing.T) {
	for _, p := range clusterSizes {
		root := p / 2
		var mu sync.Mutex
		var table [][]int
		runSPMD(p, func(c *Comm) {
			// PE r contributes r items [r, r, ...].
			items := make([]int, c.Rank())
			for i := range items {
				items[i] = c.Rank()
			}
			out := Gather(c, root, items, 1)
			if c.Rank() == root {
				mu.Lock()
				table = out
				mu.Unlock()
			} else if out != nil {
				t.Errorf("non-root PE %d got non-nil gather result", c.Rank())
			}
		})
		if len(table) != p {
			t.Fatalf("p=%d: gather table has %d entries", p, len(table))
		}
		for r, items := range table {
			if len(items) != r {
				t.Fatalf("p=%d: PE %d contributed %d items, want %d", p, r, len(items), r)
			}
			for _, v := range items {
				if v != r {
					t.Fatalf("p=%d: PE %d item corrupted: %d", p, r, v)
				}
			}
		}
	}
}

func TestLatencyScalesLogarithmically(t *testing.T) {
	// With beta=0 and alpha=1, a broadcast's completion time must be
	// Theta(log p), not Theta(p).
	times := map[int]float64{}
	for _, p := range []int{4, 16, 64, 256} {
		cl := simnet.NewCluster(p, simnet.CostParams{AlphaNS: 1, BetaNS: 0})
		cl.Parallel(func(pe *simnet.PE) {
			c := New(pe)
			Broadcast(c, 0, 1, 1)
		})
		times[p] = cl.MaxClock()
	}
	for _, p := range []int{4, 16, 64, 256} {
		logp := math.Log2(float64(p))
		if times[p] > 3*logp {
			t.Errorf("broadcast time at p=%d is %v, want O(log p) ~ %v", p, times[p], logp)
		}
		if times[p] < logp {
			t.Errorf("broadcast time at p=%d is %v, below log2 p = %v (tree too shallow?)", p, times[p], logp)
		}
	}
}

func TestGatherCostLinearInPayload(t *testing.T) {
	// With alpha=0 and beta=1, gathering ℓ words from each of p PEs must
	// cost Θ(p·ℓ) at the root's critical path.
	p, l := 16, 100
	cl := simnet.NewCluster(p, simnet.CostParams{AlphaNS: 0, BetaNS: 1})
	cl.Parallel(func(pe *simnet.PE) {
		c := New(pe)
		items := make([]int, l)
		Gather(c, 0, items, 1)
	})
	total := cl.MaxClock()
	want := float64((p - 1) * l)
	if total < want || total > 3*want {
		t.Errorf("gather critical path = %v, want within [%v, %v]", total, want, 3*want)
	}
}

func TestMergeSmallest(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	op := MergeSmallest(3, less)
	got := op([]int{1, 4, 9}, []int{2, 3})
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("MergeSmallest = %v", got)
	}
	if got := op(nil, []int{5}); len(got) != 1 || got[0] != 5 {
		t.Fatalf("MergeSmallest with empty side = %v", got)
	}
	if got := op(nil, nil); len(got) != 0 {
		t.Fatalf("MergeSmallest of empties = %v", got)
	}
	// Associativity on a concrete instance.
	a, b, c := []int{1, 10}, []int{2, 20}, []int{3, 30}
	left := op(op(append([]int(nil), a...), append([]int(nil), b...)), append([]int(nil), c...))
	right := op(append([]int(nil), a...), op(append([]int(nil), b...), append([]int(nil), c...)))
	for i := range left {
		if left[i] != right[i] {
			t.Fatalf("MergeSmallest not associative: %v vs %v", left, right)
		}
	}
}

func TestManySequentialCollectives(t *testing.T) {
	// Back-to-back collectives must not cross-talk (tag discipline).
	p := 9
	runSPMD(p, func(c *Comm) {
		for i := 0; i < 50; i++ {
			s := AllReduce(c, 1, SumInt, 1)
			if s != p {
				t.Errorf("iteration %d: allreduce = %d, want %d", i, s, p)
				return
			}
			v := Broadcast(c, i%p, i, 1)
			if v != i {
				t.Errorf("iteration %d: broadcast = %d", i, v)
				return
			}
		}
	})
}
