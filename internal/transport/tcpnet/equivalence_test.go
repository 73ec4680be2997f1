package tcpnet_test

// The transport-equivalence suite: every collective of internal/coll and a
// full distributed sampling run must produce identical results over the
// in-process simulator (payloads passed by reference, virtual clocks) and
// over tcpnet (payloads wire-encoded across real sockets, wall clocks).
// This is the contract that lets one SPMD codebase serve both as the
// paper's measurement harness and as a real multi-process system.

import (
	"fmt"
	"sync"
	"testing"

	"reservoir"
	"reservoir/internal/btree"
	"reservoir/internal/coll"
	"reservoir/internal/core"
	"reservoir/internal/distsel"
	"reservoir/internal/rng"
	"reservoir/internal/simnet"
	"reservoir/internal/transport"
	"reservoir/internal/transport/tcpnet"
	"reservoir/internal/workload"
)

// runOverSimnet executes body SPMD over a fresh simulated cluster.
func runOverSimnet(t *testing.T, p int, body func(c *coll.Comm)) {
	t.Helper()
	runOverSimnetConns(t, p, func(conn transport.Conn, _ int) { body(coll.New(conn)) })
}

// runOverTCP executes body SPMD over a loopback TCP mesh, one goroutine
// per node, and propagates the first panic as a test failure.
func runOverTCP(t *testing.T, p int, body func(c *coll.Comm)) {
	t.Helper()
	runOverTCPConns(t, p, func(conn transport.Conn, _ int) { body(coll.New(conn)) })
}

// collectiveScript runs one instance of every collective and records the
// per-rank results as a printable transcript. Slices are rendered with %v,
// which treats nil and empty identically — the backends differ in slice
// identity but must agree on contents.
func collectiveScript(p int) func(c *coll.Comm) []string {
	return func(c *coll.Comm) []string {
		var out []string
		add := func(name string, v any) { out = append(out, fmt.Sprintf("%s=%v", name, v)) }

		add("bcast_int", coll.Broadcast(c, 0, c.Rank()*10+7, 1))
		add("bcast_float", coll.Broadcast(c, p-1, float64(c.Rank())+0.5, 1))
		add("reduce_sum", coll.Reduce(c, 0, c.Rank()+1, coll.SumInt, 1))
		add("reduce_concat", coll.Reduce(c, p/2, []int{c.Rank()},
			func(a, b []int) []int { return append(append([]int(nil), a...), b...) }, 1))
		add("allreduce_min", coll.AllReduce(c, 100-float64(c.Rank()), func(a, b float64) float64 { return min(a, b) }, 1))
		add("allreduce_max", coll.AllReduce(c, float64(c.Rank()*c.Rank()), func(a, b float64) float64 { return max(a, b) }, 1))
		add("allreduce_vec", coll.AllReduce(c, []int{c.Rank(), 1, -c.Rank()}, coll.SumInts, 3))

		// Merge the d smallest keys, the selection algorithm's hot op.
		keys := []btree.Key{
			{V: float64(c.Rank()) + 0.25, ID: uint64(c.Rank())},
			{V: float64(c.Rank()*3) + 0.75, ID: uint64(c.Rank() + 100)},
		}
		add("allreduce_merge", coll.AllReduce(c, keys, coll.MergeSmallest(3, btree.Key.Less), 6))

		// The exact tail selection, with the last rank holding no keys
		// once p > 1: its empty []btree.Key crosses the wire into the
		// merge, from the top tail and from the bottom one.
		var own distsel.KeySlice
		if c.Rank() < p-1 || p == 1 {
			own = keys
		}
		n := 2 * max(p-1, 1)
		for _, k := range []int{n, 1} {
			add("tail_select", distsel.KthSmallest(c, own, k, distsel.Options{RNG: rng.NewXoshiro256(1)}))
		}

		// Variable-length gather, including an empty contribution.
		var items []workload.Item
		for i := 0; i <= c.Rank()%3; i++ {
			items = append(items, workload.Item{W: float64(c.Rank()) + float64(i)/8, ID: uint64(c.Rank()*100 + i)})
		}
		if c.Rank() == p/2 {
			items = nil
		}
		add("gather", coll.Gather(c, 0, items, 2))
		return out
	}
}

func TestCollectiveEquivalenceAcrossTransports(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 8} {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			t.Parallel()
			script := collectiveScript(p)
			simOut := make([][]string, p)
			tcpOut := make([][]string, p)
			var mu sync.Mutex
			runOverSimnet(t, p, func(c *coll.Comm) {
				r := script(c)
				mu.Lock()
				simOut[c.Rank()] = r
				mu.Unlock()
			})
			runOverTCP(t, p, func(c *coll.Comm) {
				r := script(c)
				mu.Lock()
				tcpOut[c.Rank()] = r
				mu.Unlock()
			})
			for rank := 0; rank < p; rank++ {
				if len(simOut[rank]) != len(tcpOut[rank]) {
					t.Fatalf("rank %d: %d simnet records vs %d tcpnet records", rank, len(simOut[rank]), len(tcpOut[rank]))
				}
				for i := range simOut[rank] {
					if simOut[rank][i] != tcpOut[rank][i] {
						t.Errorf("rank %d record %d:\n  simnet: %s\n  tcpnet: %s", rank, i, simOut[rank][i], tcpOut[rank][i])
					}
				}
			}
		})
	}
}

// samplingRun drives one full multi-round sampling run SPMD and returns
// the rank-0 collected sample plus every rank's final threshold and size.
type samplingResult struct {
	sample  []workload.Item
	thresh  []float64
	haveT   []bool
	size    []int
	netMsgs int64 // simnet only
}

func driveSampler(c *coll.Comm, cfg core.Config, algo string, rounds, batchLen int) (sample []workload.Item, thresh float64, haveT bool, size int) {
	var s core.Sampler
	var err error
	switch algo {
	case "gather":
		s, err = core.NewGatherPE(c, cfg)
	default:
		s, err = core.NewDistPE(c, cfg)
	}
	if err != nil {
		panic(err)
	}
	src := workload.UniformSource{Seed: cfg.Seed + 99, BatchLen: batchLen, Lo: 0, Hi: 100}
	for round := 0; round < rounds; round++ {
		s.ProcessBatch(src.NextBatch(c.Rank(), round))
	}
	sample = s.CollectSample()
	thresh, haveT = s.Threshold()
	size = s.SampleSize()
	return
}

func TestSamplingEquivalenceAcrossTransports(t *testing.T) {
	cases := []struct {
		name   string
		algo   string
		cfg    core.Config
		p      int
		rounds int
		batch  int
	}{
		{"distributed-weighted", "ours", core.Config{K: 64, Weighted: true, Seed: 42}, 4, 6, 800},
		{"distributed-uniform", "ours", core.Config{K: 48, Seed: 7}, 4, 5, 600},
		{"distributed-multipivot", "ours", core.Config{K: 64, Weighted: true, Seed: 11, Strategy: core.SelMultiPivot, Pivots: 4}, 5, 4, 500},
		{"gather-baseline", "gather", core.Config{K: 64, Weighted: true, Seed: 23}, 4, 6, 800},
		{"distributed-sharded4", "ours", core.Config{K: 64, Weighted: true, Seed: 37, Shards: 4}, 4, 6, 800},
		{"distributed-randomdist", "ours", core.Config{K: 64, Weighted: true, Seed: 53, Strategy: core.SelRandomDist}, 4, 6, 800},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(exec func(*testing.T, int, func(*coll.Comm))) samplingResult {
				res := samplingResult{
					thresh: make([]float64, tc.p),
					haveT:  make([]bool, tc.p),
					size:   make([]int, tc.p),
				}
				var mu sync.Mutex
				exec(t, tc.p, func(c *coll.Comm) {
					sample, th, have, size := driveSampler(c, tc.cfg, tc.algo, tc.rounds, tc.batch)
					mu.Lock()
					defer mu.Unlock()
					res.thresh[c.Rank()] = th
					res.haveT[c.Rank()] = have
					res.size[c.Rank()] = size
					if c.Rank() == 0 {
						res.sample = sample
					}
				})
				return res
			}
			sim := run(runOverSimnet)
			tcp := run(runOverTCP)

			if len(sim.sample) != len(tcp.sample) {
				t.Fatalf("sample sizes differ: simnet %d vs tcpnet %d", len(sim.sample), len(tcp.sample))
			}
			for i := range sim.sample {
				if sim.sample[i] != tcp.sample[i] {
					t.Fatalf("sample[%d] differs: simnet %+v vs tcpnet %+v", i, sim.sample[i], tcp.sample[i])
				}
			}
			for rank := 0; rank < tc.p; rank++ {
				if sim.thresh[rank] != tcp.thresh[rank] || sim.haveT[rank] != tcp.haveT[rank] {
					t.Errorf("rank %d threshold: simnet (%v,%v) vs tcpnet (%v,%v)",
						rank, sim.thresh[rank], sim.haveT[rank], tcp.thresh[rank], tcp.haveT[rank])
				}
				if sim.size[rank] != tcp.size[rank] {
					t.Errorf("rank %d size: simnet %d vs tcpnet %d", rank, sim.size[rank], tcp.size[rank])
				}
			}
			if len(sim.sample) != tc.cfg.K {
				t.Fatalf("sample has %d items, want k=%d", len(sim.sample), tc.cfg.K)
			}
		})
	}
}

// TestPipelinedNodeEquivalenceAcrossTransports runs the production round
// driver — reservoir.Node, which under Config.Pipeline overlaps each
// round's scan goroutine with the previous round's selection collectives
// — over both backends at shards ∈ {1, 4} and demands byte-identical
// samples and thresholds. This is the cross-transport pin for the
// pipelined sharded scan: real sockets, real concurrency, same stream.
func TestPipelinedNodeEquivalenceAcrossTransports(t *testing.T) {
	const p, rounds, batch = 4, 8, 600
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			cfg := reservoir.Config{K: 64, Weighted: true, Seed: 41, Shards: shards, Pipeline: true}
			src := reservoir.UniformSource{Seed: 43, BatchLen: batch, Lo: 0, Hi: 100}

			type result struct {
				sample []workload.Item
				thresh []float64
			}
			drive := func(conn transport.Conn, rank int, res *result, mu *sync.Mutex) {
				n, err := reservoir.NewNode(conn, cfg)
				if err != nil {
					panic(err)
				}
				for r := 0; r < rounds; r++ {
					n.ProcessRound(src)
				}
				sample := n.CollectSample()
				th, _ := n.Threshold()
				mu.Lock()
				defer mu.Unlock()
				res.thresh[rank] = th
				if rank == 0 {
					res.sample = sample
				}
			}

			var mu sync.Mutex
			sim := result{thresh: make([]float64, p)}
			runOverSimnetConns(t, p, func(conn transport.Conn, rank int) {
				drive(conn, rank, &sim, &mu)
			})
			tcp := result{thresh: make([]float64, p)}
			runOverTCPConns(t, p, func(conn transport.Conn, rank int) {
				drive(conn, rank, &tcp, &mu)
			})

			if len(sim.sample) != len(tcp.sample) {
				t.Fatalf("sample sizes differ: simnet %d vs tcpnet %d", len(sim.sample), len(tcp.sample))
			}
			for i := range sim.sample {
				if sim.sample[i] != tcp.sample[i] {
					t.Fatalf("sample[%d] differs: simnet %+v vs tcpnet %+v", i, sim.sample[i], tcp.sample[i])
				}
			}
			for rank := 0; rank < p; rank++ {
				if sim.thresh[rank] != tcp.thresh[rank] {
					t.Errorf("rank %d threshold: simnet %v vs tcpnet %v", rank, sim.thresh[rank], tcp.thresh[rank])
				}
			}
			if len(sim.sample) != cfg.K {
				t.Fatalf("sample has %d items, want k=%d", len(sim.sample), cfg.K)
			}
		})
	}
}

// runOverSimnetConns is runOverSimnet with the raw transport.Conn (the
// Node constructor wants the connection, not a pre-built Comm).
func runOverSimnetConns(t *testing.T, p int, body func(conn transport.Conn, rank int)) {
	t.Helper()
	cl := simnet.NewCluster(p, simnet.DefaultCost())
	cl.Parallel(func(pe *simnet.PE) { body(pe, pe.ID()) })
	if n := cl.PendingMessages(); n != 0 {
		t.Fatalf("simnet: %d leaked messages", n)
	}
}

// runOverTCPConns is runOverTCP with the raw transport.Conn. The first
// rank to panic closes every transport, so ranks blocked on it in Recv
// unwind at once instead of hanging until the test binary times out;
// their closed-transport panics are not reported.
func runOverTCPConns(t *testing.T, p int, body func(conn transport.Conn, rank int)) {
	t.Helper()
	ts, err := tcpnet.Loopback(p)
	if err != nil {
		t.Fatal(err)
	}
	closeAll := func() {
		for _, tr := range ts {
			tr.Close()
		}
	}
	defer closeAll()
	var (
		once      sync.Once
		first     any
		firstRank int
		wg        sync.WaitGroup
	)
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() {
						first, firstRank = r, rank
						closeAll()
					})
				}
			}()
			body(ts[rank], rank)
		}(i)
	}
	wg.Wait()
	if first != nil {
		t.Fatalf("tcpnet: rank %d panicked: %v", firstRank, first)
	}
	for rank, tr := range ts {
		if n := tr.Pending(); n != 0 {
			t.Fatalf("tcpnet: rank %d has %d leaked messages", rank, n)
		}
	}
}
