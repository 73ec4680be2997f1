package reservoir

import (
	"testing"
)

func TestClusterQuickstart(t *testing.T) {
	cfg := Config{K: 100, Weighted: true, Seed: 1}
	cl, err := NewCluster(8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 2, BatchLen: 1000, Lo: 0, Hi: 100}
	for round := 0; round < 5; round++ {
		cl.ProcessRound(src)
	}
	sample := cl.Sample()
	if len(sample) != 100 {
		t.Fatalf("sample size %d, want 100", len(sample))
	}
	if cl.SampleSize() != 100 {
		t.Fatalf("SampleSize = %d", cl.SampleSize())
	}
	if cl.Round() != 5 {
		t.Fatalf("Round = %d", cl.Round())
	}
	if _, have := cl.Threshold(); !have {
		t.Fatal("no threshold after 40k items")
	}
	if cl.VirtualTime() <= 0 {
		t.Fatal("virtual time not advancing")
	}
	ns := cl.NetworkStats()
	if ns.Messages == 0 || ns.Words == 0 {
		t.Fatalf("no network traffic recorded: %+v", ns)
	}
	tm := cl.Timing()
	if tm.ScanNS <= 0 || tm.SelectNS <= 0 {
		t.Fatalf("timing not populated: %+v", tm)
	}
	if got := cl.Counters().ItemsProcessed; got != 8*1000*5 {
		t.Fatalf("items processed %d", got)
	}
}

func TestClusterGatherAlgorithm(t *testing.T) {
	cfg := Config{K: 50, Weighted: true, Seed: 3}
	cl, err := NewCluster(4, cfg, WithAlgorithm(CentralizedGather))
	if err != nil {
		t.Fatal(err)
	}
	if cl.Algorithm() != CentralizedGather {
		t.Fatal("algorithm not set")
	}
	src := UniformSource{Seed: 4, BatchLen: 500, Lo: 0, Hi: 100}
	for round := 0; round < 3; round++ {
		cl.ProcessRound(src)
	}
	if got := len(cl.Sample()); got != 50 {
		t.Fatalf("gather sample size %d", got)
	}
	if cl.Timing().GatherNS <= 0 {
		t.Fatal("gather timing missing")
	}
	if Distributed.String() != "ours" || CentralizedGather.String() != "gather" {
		t.Error("Algorithm.String broken")
	}
	if Algorithm(7).String() == "" {
		t.Error("unknown Algorithm.String empty")
	}
}

func TestClusterProcessBatches(t *testing.T) {
	cfg := Config{K: 10, Weighted: true, Seed: 5}
	cl, err := NewCluster(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := []SliceBatch{
		{{W: 1, ID: 1}, {W: 2, ID: 2}},
		{{W: 3, ID: 3}},
	}
	if err := cl.ProcessBatches(batches); err != nil {
		t.Fatal(err)
	}
	if err := cl.ProcessBatches(batches[:1]); err == nil {
		t.Fatal("batch count mismatch not reported")
	}
	sample := cl.Sample()
	if len(sample) != 3 {
		t.Fatalf("sample %v, want all 3 items", sample)
	}
}

func TestClusterOptions(t *testing.T) {
	cfg := Config{K: 5, Weighted: true, Seed: 6}
	cl, err := NewCluster(2, cfg, WithNetworkCost(100, 2))
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 7, BatchLen: 50, Lo: 0, Hi: 1}
	cl.ProcessRound(src)
	if cl.VirtualTime() <= 0 {
		t.Fatal("no time with custom network cost")
	}
	cl.ResetClocks()
	if cl.VirtualTime() != 0 {
		t.Fatal("ResetClocks did not zero the clocks")
	}
	if _, err := NewCluster(2, Config{K: 0}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestSequentialFacades(t *testing.T) {
	w := NewWeighted(10, 1)
	u := NewUniform(10, 2)
	for i := 0; i < 1000; i++ {
		it := Item{W: 1 + float64(i%3), ID: uint64(i)}
		w.Process(it)
		u.Process(it)
	}
	if len(w.Sample()) != 10 || len(u.Sample()) != 10 {
		t.Fatal("sequential facades broken")
	}
}

func TestDefaultCostModel(t *testing.T) {
	m := DefaultCostModel()
	if m.AlphaNS <= 0 || m.ScanColdNS <= m.ScanHotNS {
		t.Fatalf("suspicious default model: %+v", m)
	}
}

func TestClusterVariableSize(t *testing.T) {
	cfg := Config{KMin: 20, KMax: 40, Weighted: true, Seed: 8}
	cl, err := NewCluster(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 9, BatchLen: 200, Lo: 0, Hi: 100}
	for round := 0; round < 6; round++ {
		cl.ProcessRound(src)
		if s := cl.SampleSize(); s > 40 {
			t.Fatalf("round %d: size %d exceeds KMax", round, s)
		}
	}
	if s := cl.SampleSize(); s < 20 {
		t.Fatalf("final size %d below KMin", s)
	}
}

func TestWeightedSampleBiasEndToEnd(t *testing.T) {
	// End-to-end sanity: with a 1000x heavier item class, heavy items must
	// be strongly over-represented in the collected sample.
	cfg := Config{K: 200, Weighted: true, Seed: 10}
	cl, err := NewCluster(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]SliceBatch, 4)
	id := uint64(0)
	for pe := range batches {
		for i := 0; i < 2500; i++ {
			w := 1.0
			if id%100 == 0 { // 1% of items are 1000x heavier
				w = 1000
			}
			batches[pe] = append(batches[pe], Item{W: w, ID: id})
			id++
		}
	}
	if err := cl.ProcessBatches(batches); err != nil {
		t.Fatal(err)
	}
	heavy := 0
	for _, it := range cl.Sample() {
		if it.ID%100 == 0 {
			heavy++
		}
	}
	// Heavy items carry ~91% of the total weight; in 200 draws without
	// replacement they must dominate. Require a conservative majority.
	if heavy < 80 {
		t.Fatalf("only %d/200 heavy items sampled; weighting ineffective", heavy)
	}
	if heavy == 200 {
		t.Fatal("sample contains only heavy items; suspicious")
	}
}

// TestSampleSnapshotMatchesSample checks the communication-free snapshot:
// it must return the same item set as the collective Sample without
// touching the virtual clocks or the simulated traffic counters, for both
// the distributed algorithm and the gather baseline.
func TestSampleSnapshotMatchesSample(t *testing.T) {
	for _, algo := range []Algorithm{Distributed, CentralizedGather} {
		cfg := Config{K: 64, Weighted: true, Seed: 3}
		cl, err := NewCluster(4, cfg, WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		src := UniformSource{Seed: 4, BatchLen: 500, Lo: 0, Hi: 100}
		for round := 0; round < 4; round++ {
			cl.ProcessRound(src)
		}
		nsBefore := cl.NetworkStats()
		vtBefore := cl.VirtualTime()
		snap := cl.SampleSnapshot()
		if ns := cl.NetworkStats(); ns != nsBefore {
			t.Fatalf("%v: SampleSnapshot generated traffic: %+v -> %+v", algo, nsBefore, ns)
		}
		if vt := cl.VirtualTime(); vt != vtBefore {
			t.Fatalf("%v: SampleSnapshot advanced virtual time: %g -> %g", algo, vtBefore, vt)
		}
		got := map[uint64]float64{}
		for _, it := range snap {
			got[it.ID] = it.W
		}
		want := cl.Sample()
		if len(snap) != len(want) {
			t.Fatalf("%v: snapshot has %d items, Sample has %d", algo, len(snap), len(want))
		}
		for _, it := range want {
			if w, ok := got[it.ID]; !ok || w != it.W {
				t.Fatalf("%v: item %d (w=%g) missing from snapshot (got w=%g, ok=%v)",
					algo, it.ID, it.W, w, ok)
			}
		}
	}
}
