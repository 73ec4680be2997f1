package faultnet_test

// The faultnet equivalence suite pins the package's core guarantee: a
// fault schedule (drops, delays, duplicates, corruptions, partitions)
// changes retry counts and latency but NEVER the delivered payload
// sequence — a sampling run over a faulty network produces the
// byte-identical sample of a fault-free run, over both the simulator
// and real TCP.

import (
	"fmt"
	"sync"
	"testing"

	"reservoir/internal/coll"
	"reservoir/internal/core"
	"reservoir/internal/simnet"
	"reservoir/internal/transport"
	"reservoir/internal/transport/faultnet"
	"reservoir/internal/transport/tcpnet"
	"reservoir/internal/workload"
)

// aggressiveSchedule injects every fault kind at rates high enough that a
// multi-round sampling run exercises each one many times.
func aggressiveSchedule(seed uint64) faultnet.Config {
	return faultnet.Config{
		Seed:      seed,
		Drop:      0.08,
		Corrupt:   0.05,
		Duplicate: 0.10,
		Delay:     0.15,
		DelayNS:   5e5,
	}
}

// runSimnet executes body SPMD over a simulated cluster, optionally
// wrapping every PE endpoint in a faultnet schedule, and returns the
// summed fault stats.
func runSimnet(t *testing.T, p int, cfg *faultnet.Config, body func(c *coll.Comm)) faultnet.Stats {
	t.Helper()
	cl := simnet.NewCluster(p, simnet.DefaultCost())
	var mu sync.Mutex
	var total faultnet.Stats
	cl.Parallel(func(pe *simnet.PE) {
		var conn transport.Conn = pe
		var fc *faultnet.Conn
		if cfg != nil {
			fc = faultnet.New(pe, *cfg)
			conn = fc
		}
		body(coll.New(conn))
		if fc != nil {
			mu.Lock()
			addStats(&total, fc.FaultStats())
			mu.Unlock()
		}
	})
	// Redundant copies (duplicates, corrupt copies awaiting a retransmit
	// the receiver never needed) may stay unclaimed in the mailboxes, so
	// the no-leak invariant only holds for fault-free runs.
	if cfg == nil {
		if n := cl.PendingMessages(); n != 0 {
			t.Fatalf("simnet: %d leaked messages", n)
		}
	}
	return total
}

// runTCP executes body SPMD over a loopback TCP mesh with optional fault
// injection on every node.
func runTCP(t *testing.T, p int, cfg *faultnet.Config, body func(c *coll.Comm)) faultnet.Stats {
	t.Helper()
	ts, err := tcpnet.Loopback(p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	var mu sync.Mutex
	var total faultnet.Stats
	panics := make([]any, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() { panics[rank] = recover() }()
			var conn transport.Conn = ts[rank]
			var fc *faultnet.Conn
			if cfg != nil {
				fc = faultnet.New(conn, *cfg)
				conn = fc
			}
			body(coll.New(conn))
			if fc != nil {
				mu.Lock()
				addStats(&total, fc.FaultStats())
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	for rank, r := range panics {
		if r != nil {
			t.Fatalf("tcpnet: rank %d panicked: %v", rank, r)
		}
	}
	return total
}

func addStats(dst *faultnet.Stats, s faultnet.Stats) {
	dst.Sent += s.Sent
	dst.Dropped += s.Dropped
	dst.Corrupted += s.Corrupted
	dst.Duplicated += s.Duplicated
	dst.Delayed += s.Delayed
	dst.Deferred += s.Deferred
	dst.Retransmits += s.Retransmits
	dst.Discarded += s.Discarded
}

// driveSampler runs a full multi-round sampling workload and returns the
// rank-0 sample.
func driveSampler(c *coll.Comm, cfg core.Config, algo string, rounds, batch int) []workload.Item {
	var s core.Sampler
	var err error
	if algo == "gather" {
		s, err = core.NewGatherPE(c, cfg)
	} else {
		s, err = core.NewDistPE(c, cfg)
	}
	if err != nil {
		panic(err)
	}
	src := workload.UniformSource{Seed: cfg.Seed + 99, BatchLen: batch, Lo: 0, Hi: 100}
	for round := 0; round < rounds; round++ {
		s.ProcessBatch(src.NextBatch(c.Rank(), round))
	}
	return s.CollectSample()
}

func sampleEqual(t *testing.T, label string, want, got []workload.Item) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: sample sizes differ: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: sample[%d] differs: %+v vs %+v", label, i, want[i], got[i])
		}
	}
}

func TestFaultScheduleNeverChangesTheSample(t *testing.T) {
	cases := []struct {
		name string
		algo string
		cfg  core.Config
	}{
		{"distributed-weighted", "ours", core.Config{K: 64, Weighted: true, Seed: 42}},
		{"distributed-uniform", "ours", core.Config{K: 48, Seed: 7}},
		{"gather-baseline", "gather", core.Config{K: 64, Weighted: true, Seed: 23}},
	}
	const p, rounds, batch = 4, 6, 800
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(exec func(*testing.T, int, *faultnet.Config, func(*coll.Comm)) faultnet.Stats, fcfg *faultnet.Config) ([]workload.Item, faultnet.Stats) {
				var mu sync.Mutex
				var sample []workload.Item
				stats := exec(t, p, fcfg, func(c *coll.Comm) {
					s := driveSampler(c, tc.cfg, tc.algo, rounds, batch)
					if c.Rank() == 0 {
						mu.Lock()
						sample = s
						mu.Unlock()
					}
				})
				return sample, stats
			}
			sched := aggressiveSchedule(2026)

			clean, _ := run(runSimnet, nil)
			faulty, st := run(runSimnet, &sched)
			sampleEqual(t, "simnet faulty vs clean", clean, faulty)
			if st.Dropped == 0 || st.Corrupted == 0 || st.Duplicated == 0 || st.Delayed == 0 {
				t.Fatalf("schedule injected too little: %+v", st)
			}
			if st.Retransmits == 0 || st.Discarded == 0 {
				t.Fatalf("faults did not force retries/discards: %+v", st)
			}

			tcpFaulty, tst := run(runTCP, &sched)
			sampleEqual(t, "tcpnet faulty vs clean simnet", clean, tcpFaulty)
			if tst.Dropped == 0 || tst.Duplicated == 0 {
				t.Fatalf("tcp schedule injected too little: %+v", tst)
			}
		})
	}
}

func TestPartitionWindowDefersButDelivers(t *testing.T) {
	const p = 4
	cfg := core.Config{K: 32, Weighted: true, Seed: 5}
	run := func(fcfg *faultnet.Config) ([]workload.Item, faultnet.Stats) {
		var mu sync.Mutex
		var sample []workload.Item
		st := runSimnet(t, p, fcfg, func(c *coll.Comm) {
			s := driveSampler(c, cfg, "ours", 5, 400)
			if c.Rank() == 0 {
				mu.Lock()
				sample = s
				mu.Unlock()
			}
		})
		return sample, st
	}
	clean, _ := run(nil)
	// Partition peers 1 and 2 away for a window of message indexes: every
	// send in the window is deferred behind the healed partition.
	sched := faultnet.Config{
		Seed:    9,
		DelayNS: 1e6,
		Partitions: []faultnet.Partition{
			{Peer: 1, From: 3, To: 20},
			{Peer: 2, From: 10, To: 40},
		},
	}
	part, st := run(&sched)
	sampleEqual(t, "partitioned vs clean", clean, part)
	if st.Deferred == 0 {
		t.Fatalf("partition windows deferred nothing: %+v", st)
	}
}

// TestScheduleIsDeterministic: the same seed must reproduce the identical
// fault pattern, independent of goroutine scheduling.
func TestScheduleIsDeterministic(t *testing.T) {
	cfg := core.Config{K: 32, Weighted: true, Seed: 13}
	sched := aggressiveSchedule(777)
	run := func() faultnet.Stats {
		return runSimnet(t, 4, &sched, func(c *coll.Comm) {
			driveSampler(c, cfg, "ours", 4, 500)
		})
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different schedules:\n  %+v\n  %+v", a, b)
	}
	sched.Seed = 778
	if c := run(); c == a {
		t.Fatalf("different seed produced the identical schedule: %+v", c)
	}
}

// TestUnwrappedPeerIsDetected: a faultnet endpoint receiving a bare
// (non-envelope) message must fail loudly instead of mis-delivering.
func TestUnwrappedPeerIsDetected(t *testing.T) {
	cl := simnet.NewCluster(2, simnet.DefaultCost())
	var panicked any
	cl.Parallel(func(pe *simnet.PE) {
		if pe.ID() == 0 {
			pe.Send(1, 0, 7, 1) // not wrapped in faultnet
		} else {
			fc := faultnet.New(pe, faultnet.Config{Seed: 1})
			func() {
				defer func() { panicked = recover() }()
				fc.Recv(0, 0)
			}()
		}
	})
	if panicked == nil {
		t.Fatal("bare message was delivered through faultnet without protest")
	}
	if s, ok := panicked.(string); !ok || s == "" {
		t.Fatalf("unexpected panic payload: %v", panicked)
	}
}

// TestStatsDelegation: faultnet forwards traffic counters of the wrapped
// transport, and duplicates show up as real traffic.
func TestStatsDelegation(t *testing.T) {
	ts, err := tcpnet.Loopback(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range ts {
			tr.Close()
		}
	}()
	sched := faultnet.Config{Seed: 3, Duplicate: 1.0} // every message doubled
	var wg sync.WaitGroup
	var msgs [2]int64
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fc := faultnet.New(ts[rank], sched)
			if rank == 0 {
				fc.Send(1, 7, 100+rank, 1)
				fc.Flush() // tcpnet batches sends until a flush point
			} else {
				if got := fc.Recv(0, 7); got != 100 {
					panic(fmt.Sprintf("got %v", got))
				}
			}
			msgs[rank] = fc.Stats().Messages
		}(i)
	}
	wg.Wait()
	if msgs[0] != 2 {
		t.Fatalf("sender wire messages = %d, want 2 (original + duplicate)", msgs[0])
	}
}
