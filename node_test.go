package reservoir

// Tests for the Node overlap driver, which Cluster also runs: under
// Config.Pipeline a Node runs each round's StartScan on its own
// goroutine, concurrent with the previous round's FinishPending
// collectives, double-buffering the candidate set. The sample must stay
// byte-identical to the sequential reference, core.DistPE.ProcessBatch,
// which runs the same three phases strictly in order — and the
// concurrent driver must be clean under the race detector (CI runs this
// package with -race).

import (
	"sync"
	"testing"

	"reservoir/internal/coll"
	"reservoir/internal/core"
	"reservoir/internal/simnet"
	"reservoir/internal/transport"
)

// runNodes drives p Nodes SPMD over the in-process simulator's transport
// for the given rounds and returns rank 0's collected sample, the
// accumulated phase stats and every rank's threshold.
func runNodes(t *testing.T, p, rounds int, cfg Config, src Source) ([]Item, []PhaseStats, []float64) {
	t.Helper()
	sim := simnet.NewCluster(p, simnet.DefaultCost())
	nodes := make([]*Node, p)
	for i := 0; i < p; i++ {
		n, err := NewNode(sim.PE(i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for r := 0; r < rounds; r++ {
		sim.Parallel(func(pe *simnet.PE) {
			nodes[pe.ID()].ProcessRound(src)
		})
	}
	var sample []Item
	var mu sync.Mutex
	sim.Parallel(func(pe *simnet.PE) {
		s := nodes[pe.ID()].CollectSample()
		if pe.ID() == 0 {
			mu.Lock()
			sample = s
			mu.Unlock()
		}
	})
	phases := make([]PhaseStats, p)
	thresh := make([]float64, p)
	for i, n := range nodes {
		phases[i] = n.PhaseStats()
		thresh[i], _ = n.Threshold()
	}
	return sample, phases, thresh
}

// runSequential drives p core.DistPEs over the simulator with
// DistPE.ProcessBatch — StartScan, FinishPending, CommitScan strictly in
// order — and returns rank 0's collected sample.
func runSequential(t *testing.T, p, rounds int, cfg Config, src Source) []Item {
	t.Helper()
	sim := simnet.NewCluster(p, simnet.DefaultCost())
	pes := make([]*core.DistPE, p)
	for i := range pes {
		pe, err := core.NewDistPE(coll.New(sim.PE(i)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		pes[i] = pe
	}
	for r := 0; r < rounds; r++ {
		sim.Parallel(func(pe *simnet.PE) {
			pes[pe.ID()].ProcessBatch(src.NextBatch(pe.ID(), r))
		})
	}
	var sample []Item
	sim.Parallel(func(pe *simnet.PE) {
		if s := pes[pe.ID()].CollectSample(); pe.ID() == 0 {
			sample = s
		}
	})
	return sample
}

// TestNodeOverlapMatchesSequentialCluster pins the determinism contract
// of the overlap driver: it and the sequential phase order of
// DistPE.ProcessBatch produce byte-identical samples at shards 1 and 4,
// weighted and uniform.
func TestNodeOverlapMatchesSequentialCluster(t *testing.T) {
	const p, rounds, batch = 4, 10, 1500
	for _, shards := range []int{1, 4} {
		for _, weighted := range []bool{true, false} {
			cfg := Config{K: 64, Weighted: weighted, Seed: 21, Shards: shards, Pipeline: true, Model: DefaultCostModel()}
			src := UniformSource{Seed: 33, BatchLen: batch, Lo: 0, Hi: 100}

			nodeSample, phases, _ := runNodes(t, p, rounds, cfg, src)
			seqSample := runSequential(t, p, rounds, cfg, src)

			if len(nodeSample) != len(seqSample) {
				t.Fatalf("shards=%d weighted=%v: node sample %d items vs sequential %d",
					shards, weighted, len(nodeSample), len(seqSample))
			}
			for i := range nodeSample {
				if nodeSample[i] != seqSample[i] {
					t.Fatalf("shards=%d weighted=%v: sample[%d] differs: node %+v vs sequential %+v",
						shards, weighted, i, nodeSample[i], seqSample[i])
				}
			}
			for rank, ph := range phases {
				if ph.RoundNS <= 0 || ph.ScanNS <= 0 {
					t.Errorf("shards=%d weighted=%v rank %d: phase stats not populated: %+v",
						shards, weighted, rank, ph)
				}
			}
		}
	}
}

// TestNodePipelineRaceStress hammers the double-buffered candidate set:
// many small rounds keep a selection pending at almost every StartScan,
// so the scan goroutine and the collective goroutine run concurrently
// every round. The assertions are the race detector's (CI runs -race)
// plus basic sample invariants.
func TestNodePipelineRaceStress(t *testing.T) {
	const p, rounds, batch, k = 4, 40, 2000, 128
	cfg := Config{K: k, Weighted: true, Seed: 77, Shards: 4, Pipeline: true}
	src := ParetoSource{Seed: 78, BatchLen: batch, Shape: 1.5}
	sample, phases, _ := runNodes(t, p, rounds, cfg, src)
	if len(sample) != k {
		t.Fatalf("sample has %d items, want k=%d", len(sample), k)
	}
	seen := make(map[uint64]bool, len(sample))
	for _, it := range sample {
		if it.W <= 0 {
			t.Fatalf("sampled item %d has non-positive weight %v", it.ID, it.W)
		}
		if seen[it.ID] {
			t.Fatalf("item %d sampled twice (without-replacement violated)", it.ID)
		}
		seen[it.ID] = true
	}
	var overlap int64
	for _, ph := range phases {
		overlap += ph.OverlapNS
	}
	if overlap <= 0 {
		t.Error("no overlapped wall time recorded across 40 pipelined rounds")
	}
}

// TestDefaultShardsIsOneShard: the sharded scan is the only scan, and an
// unset Config.Shards means one shard. Both configs must give
// byte-identical samples and thresholds, on the simulated Cluster and on
// pipelined Nodes, weighted and uniform.
func TestDefaultShardsIsOneShard(t *testing.T) {
	const p, rounds = 4, 8
	src := ParetoSource{Seed: 5, BatchLen: 1000, Shape: 1.5}
	runCluster := func(cfg Config) ([]Item, float64) {
		cl, err := NewCluster(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			cl.ProcessRound(src)
		}
		th, ok := cl.Threshold()
		if !ok {
			t.Fatal("no threshold after the run")
		}
		return cl.Sample(), th
	}
	sameItems := func(label string, a, b []Item) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: sample sizes differ: %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: sample[%d] differs: %+v vs %+v", label, i, a[i], b[i])
			}
		}
	}
	for _, weighted := range []bool{true, false} {
		unset := Config{K: 64, Weighted: weighted, Seed: 13}
		one := unset
		one.Shards = 1

		a, ta := runCluster(unset)
		b, tb := runCluster(one)
		sameItems("cluster", a, b)
		if ta != tb {
			t.Fatalf("cluster weighted=%v: threshold %v (unset) vs %v (Shards: 1)", weighted, ta, tb)
		}

		unset.Pipeline, one.Pipeline = true, true
		na, _, nta := runNodes(t, p, rounds, unset, src)
		nb, _, ntb := runNodes(t, p, rounds, one, src)
		sameItems("pipelined nodes", na, nb)
		for rank := range nta {
			if nta[rank] != ntb[rank] {
				t.Fatalf("nodes weighted=%v rank %d: threshold %v (unset) vs %v (Shards: 1)", weighted, rank, nta[rank], ntb[rank])
			}
		}
	}
}

// countingConn adds per-PE traffic counters to a simulator PE, so a Node
// over it reports NetworkStats the way a wire transport does. Each PE
// goroutine touches only its own conn.
type countingConn struct {
	*simnet.PE
	msgs, words int64
}

func (c *countingConn) Send(to, tag int, payload any, words int) {
	c.msgs++
	c.words += int64(words)
	c.PE.Send(to, tag, payload, words)
}

func (c *countingConn) Stats() transport.Stats {
	return transport.Stats{Messages: c.msgs, Words: c.words, Bytes: 8 * c.words}
}

// TestClusterStatsReducesToRankZero: ClusterStats is one reduction to
// rank 0 — p-1 messages — and rank 0's result is the sum of every rank's
// own traffic and operation counters as they stood at the call.
func TestClusterStatsReducesToRankZero(t *testing.T) {
	const p = 4
	sim := simnet.NewCluster(p, simnet.DefaultCost())
	nodes := make([]*Node, p)
	for i := range nodes {
		n, err := NewNode(&countingConn{PE: sim.PE(i)}, Config{K: 64, Weighted: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	src := UniformSource{Seed: 6, BatchLen: 500, Lo: 0, Hi: 100}
	for r := 0; r < 3; r++ {
		sim.Parallel(func(pe *simnet.PE) { nodes[pe.ID()].ProcessRound(src) })
	}
	var wantNet NetworkStats
	var wantOps Counters
	for _, n := range nodes {
		net := n.NetworkStats()
		wantNet.Messages += net.Messages
		wantNet.Words += net.Words
		wantNet.Bytes += net.Bytes
		wantOps.Add(n.Counters())
	}
	if wantNet.Messages == 0 || wantOps.ItemsProcessed != 3*p*500 {
		t.Fatalf("rounds left no traffic or wrong item count: %+v %+v", wantNet, wantOps)
	}
	msgs := sim.Stats().Messages
	var gotNet NetworkStats
	var gotOps Counters
	zeroElsewhere := true
	var mu sync.Mutex
	sim.Parallel(func(pe *simnet.PE) {
		net, ops, _ := nodes[pe.ID()].ClusterStats()
		mu.Lock()
		defer mu.Unlock()
		if pe.ID() == 0 {
			gotNet, gotOps = net, ops
		} else if net != (NetworkStats{}) || ops != (Counters{}) {
			zeroElsewhere = false
		}
	})
	if got := sim.Stats().Messages - msgs; got != p-1 {
		t.Errorf("ClusterStats cost %d messages, want p-1 = %d", got, p-1)
	}
	if gotNet != wantNet || gotOps != wantOps {
		t.Errorf("rank 0 totals %+v %+v, want %+v %+v", gotNet, gotOps, wantNet, wantOps)
	}
	if !zeroElsewhere {
		t.Error("a rank other than 0 got nonzero totals")
	}
}
