package reservoir

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"sort"
	"testing"
)

func sampleIDs(items []Item) []uint64 {
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestClusterSnapshotResumesIdentically(t *testing.T) {
	cfg := Config{K: 80, Weighted: true, Strategy: SelMultiPivot, Pivots: 4, Seed: 21}
	cl, err := NewCluster(6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 5, BatchLen: 700, Lo: 0, Hi: 100}
	for round := 0; round < 3; round++ {
		cl.ProcessRound(src)
	}
	blob, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreCluster(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Round() != cl.Round() || restored.P() != cl.P() {
		t.Fatalf("restored round/p = %d/%d, want %d/%d",
			restored.Round(), restored.P(), cl.Round(), cl.P())
	}
	th1, _ := cl.Threshold()
	th2, _ := restored.Threshold()
	if th1 != th2 {
		t.Fatalf("thresholds differ: %v vs %v", th1, th2)
	}

	// Continuing both clusters with the same input must give identical
	// samples (the PRNG state is part of the snapshot).
	for round := 3; round < 6; round++ {
		cl.ProcessRound(src)
		restored.ProcessRound(src)
	}
	a := sampleIDs(cl.Sample())
	b := sampleIDs(restored.Sample())
	if len(a) != len(b) {
		t.Fatalf("sample sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("samples diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSnapshotRoundTripsCounters(t *testing.T) {
	// Format v2 carries per-PE operation counters, so a recovered run's
	// stats (items processed, insertions, selection depths) match an
	// uninterrupted run's.
	cfg := Config{K: 50, Weighted: true, Seed: 11}
	cl, err := NewCluster(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 3, BatchLen: 400, Lo: 0, Hi: 100}
	for round := 0; round < 4; round++ {
		cl.ProcessRound(src)
	}
	blob, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCluster(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Counters(), cl.Counters(); got != want {
		t.Fatalf("counters differ after restore: %+v vs %+v", got, want)
	}
	for pe := 0; pe < cl.P(); pe++ {
		if got, want := restored.PECounters(pe), cl.PECounters(pe); got != want {
			t.Fatalf("PE %d counters differ: %+v vs %+v", pe, got, want)
		}
	}
	// And the counters keep accumulating identically afterwards.
	cl.ProcessRound(src)
	restored.ProcessRound(src)
	if got, want := restored.Counters(), cl.Counters(); got != want {
		t.Fatalf("counters diverge after resume: %+v vs %+v", got, want)
	}
}

func TestSnapshotBeforeThreshold(t *testing.T) {
	// Snapshot during the fill phase (no threshold yet).
	cfg := Config{K: 1000, Weighted: true, Seed: 9}
	cl, err := NewCluster(3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 2, BatchLen: 50, Lo: 0, Hi: 10}
	cl.ProcessRound(src)
	blob, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCluster(cfg, blob)
	if err != nil {
		t.Fatal(err)
	}
	if restored.SampleSize() != cl.SampleSize() {
		t.Fatalf("sizes differ: %d vs %d", restored.SampleSize(), cl.SampleSize())
	}
	if _, have := restored.Threshold(); have {
		t.Fatal("restored cluster has a threshold it should not have")
	}
}

func TestSnapshotErrors(t *testing.T) {
	cfg := Config{K: 10, Weighted: true, Seed: 1}
	if _, err := RestoreCluster(cfg, nil); err == nil {
		t.Error("empty snapshot accepted")
	}
	cl, err := NewCluster(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.ProcessRound(UniformSource{Seed: 3, BatchLen: 100, Lo: 0, Hi: 1})
	blob, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(cfg, blob[:len(blob)-4]); err == nil {
		t.Error("truncated snapshot accepted")
	}
	if _, err := RestoreCluster(cfg, append(blob, 0)); err == nil {
		t.Error("snapshot with trailing bytes accepted")
	}
	if _, err := RestoreCluster(cfg, blob, WithAlgorithm(CentralizedGather)); err == nil {
		t.Error("restore into gather cluster accepted")
	}
	gcl, err := NewCluster(2, cfg, WithAlgorithm(CentralizedGather))
	if err != nil {
		t.Fatal(err)
	}
	gcl.ProcessRound(UniformSource{Seed: 3, BatchLen: 100, Lo: 0, Hi: 1})
	gblob, err := gcl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCluster(cfg, gblob); err == nil {
		t.Error("gather snapshot restored into a distributed cluster")
	}
}

// TestGatherClusterSnapshotResumesIdentically: a gather cluster restored
// from a snapshot reports the same round, counters and sample, snapshots
// to the same bytes, and continues on the same sampling stream.
func TestGatherClusterSnapshotResumesIdentically(t *testing.T) {
	cfg := Config{K: 30, Weighted: true, Seed: 8}
	opt := WithAlgorithm(CentralizedGather)
	cl, err := NewCluster(3, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 6, BatchLen: 200, Lo: 0, Hi: 100}
	for round := 0; round < 4; round++ {
		cl.ProcessRound(src)
	}
	blob, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreCluster(cfg, blob, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := restored.Snapshot(); err != nil || !bytes.Equal(again, blob) {
		t.Fatalf("restored gather cluster snapshots differently (%v)", err)
	}
	if restored.Round() != cl.Round() || restored.Counters() != cl.Counters() {
		t.Fatalf("restored round/counters %d %+v, want %d %+v", restored.Round(), restored.Counters(), cl.Round(), cl.Counters())
	}
	for round := 0; round < 3; round++ {
		cl.ProcessRound(src)
		restored.ProcessRound(src)
	}
	if got, want := sampleIDs(restored.Sample()), sampleIDs(cl.Sample()); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored gather cluster diverged: %v vs %v", got, want)
	}
}

// TestSnapshotBytesPinned pins the exact snapshot bytes and virtual time
// of a fixed run for both algorithms, with and without Pipeline, and the
// gather baseline's uniform filter too, so a change to the round driver,
// a scan or the snapshot codec that alters either fails here.
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name     string
		pipeline bool
		weighted bool
		algo     Algorithm
		sha      string
		vtime    float64
	}{
		{"ours", false, true, Distributed, "0605922daf68c8ad601c110cf0c10b70d23e8a9c22e601d9ac48baf08bf567aa", 181929.5795888879},
		{"ours-pipeline", true, true, Distributed, "4dcc2bb6cd744a79d8c3fc8b18a4239fc602ce3599d40313fb203c8946715402", 180883.12444506446},
		{"gather", false, true, CentralizedGather, "1891d7058cb929b4d54480ba8eeda60c120fbd9748de5b03a0cba1dd34558ffc", 96727},
		{"gather-uniform", false, false, CentralizedGather, "e91d1690b86fa80d72641dab40c77dd823a4127ef53c3c87a7df8d2a528919dd", 96435},
	}
	src := UniformSource{Seed: 3, BatchLen: 700, Lo: 0, Hi: 100}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{K: 64, Weighted: tc.weighted, Seed: 9, Shards: 4, Pipeline: tc.pipeline}
			cl, err := NewCluster(4, cfg, WithAlgorithm(tc.algo))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 7; r++ {
				cl.ProcessRound(src)
			}
			blob, err := cl.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("snapshot sha256 = %s, want %s", got, tc.sha)
			}
			if got := cl.VirtualTime(); got != tc.vtime {
				t.Errorf("virtual time = %v, want %v", got, tc.vtime)
			}
		})
	}
}

// TestSeqSnapshotBytesPinned pins the exact snapshot bytes of the two
// sequential samplers after a fixed stream, past the fill phase and
// still filling, so a change to the sequential snapshot codec that
// alters the layout fails here.
func TestSeqSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		name     string
		weighted bool
		n        int
		sha      string
	}{
		{"weighted", true, 500, "7337dbf691dc7be6da9f8eeaf87f6edc65d8ceabbd04f190b844f3c08c4d78b7"},
		{"weighted-filling", true, 20, "4c5951e045089063565c3a029f12eaf5000d1094900a32c36cc2add19a4adedc"},
		{"uniform", false, 500, "eb7387c274e1f072e4118bb4fa03987c90ac7bc98e9167de23e61f6ccf647a90"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s interface {
				Process(Item)
				MarshalBinary() ([]byte, error)
			} = NewUniform(32, 7)
			if tc.weighted {
				s = NewWeighted(32, 7)
			}
			for i := 0; i < tc.n; i++ {
				s.Process(Item{W: float64(i%17) + 0.25, ID: uint64(i)})
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("snapshot sha256 = %s, want %s", got, tc.sha)
			}
		})
	}
}
