package reservoir

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// fuzzClusterCfg is the fixed configuration FuzzRestoreCluster restores
// into; restore validates the snapshot against it, so corrupt inputs that
// disagree with the config must error out cleanly.
var fuzzClusterCfg = Config{K: 16, Weighted: true, Seed: 1}

// fuzzAlgorithms are the algorithms FuzzRestoreCluster restores every
// input into; a snapshot carries its PEs' kind, so at most one accepts.
var fuzzAlgorithms = []Algorithm{Distributed, CentralizedGather}

func clusterSnapshotSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, algo := range fuzzAlgorithms {
		for _, setup := range []struct {
			p, rounds int
		}{
			{1, 0}, {2, 1}, {4, 3},
		} {
			cl, err := NewCluster(setup.p, fuzzClusterCfg, WithAlgorithm(algo))
			if err != nil {
				tb.Fatal(err)
			}
			src := UniformSource{Seed: 5, BatchLen: 120, Lo: 0, Hi: 100}
			for r := 0; r < setup.rounds; r++ {
				cl.ProcessRound(src)
			}
			blob, err := cl.Snapshot()
			if err != nil {
				tb.Fatal(err)
			}
			seeds = append(seeds, blob)
		}
		// subnormal: a 4-PE cluster after 5 rounds of weight 5e-324, whose
		// keys and so whose threshold are +Inf.
		cl, err := NewCluster(4, fuzzClusterCfg, WithAlgorithm(algo))
		if err != nil {
			tb.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			batches := make([]SliceBatch, 4)
			for pe := range batches {
				for i := 0; i < 20; i++ {
					batches[pe] = append(batches[pe], Item{W: 5e-324, ID: uint64(r*1000 + pe*100 + i)})
				}
			}
			if err := cl.ProcessBatches(batches); err != nil {
				tb.Fatal(err)
			}
		}
		if th, ok := cl.Threshold(); !ok || !math.IsInf(th, 1) {
			tb.Fatalf("%v subnormal seed: threshold %v (set %v), want +Inf", algo, th, ok)
		}
		blob, err := cl.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	return seeds
}

// FuzzRestoreCluster hammers the cluster snapshot decoder with both
// algorithms: truncated, bit-flipped, and length-lying inputs must return
// an error — never panic and never allocate a cluster larger than the
// input can justify. A snapshot that restores successfully must snapshot
// again bit-identically (decode is the inverse of encode on its image),
// and the restored cluster must run one more round.
func FuzzRestoreCluster(f *testing.F) {
	for _, s := range clusterSnapshotSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)*2/3])
		flipped := append([]byte(nil), s...)
		flipped[len(flipped)/2] ^= 0x08
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		for _, algo := range fuzzAlgorithms {
			cl, err := RestoreCluster(fuzzClusterCfg, data, WithAlgorithm(algo))
			if err != nil {
				continue
			}
			again, err := cl.Snapshot()
			if err != nil {
				t.Fatalf("restored %v cluster cannot snapshot: %v", algo, err)
			}
			if !bytes.Equal(again, data) {
				t.Fatalf("%v snapshot does not round-trip (%d vs %d bytes)", algo, len(again), len(data))
			}
			cl.ProcessRound(UniformSource{Seed: 2, BatchLen: 10, Lo: 0, Hi: 1})
		}
	})
}

// TestFuzzCorpusClusterValid pins the committed cluster_valid seed to the
// snapshot it is generated from: three PEs after two rounds of
// UniformSource{Seed: 5, BatchLen: 150, Hi: 100}. A change to the
// snapshot layout or the sampling stream leaves the seed stale — it would
// then only exercise the error path — so it fails here until the seeds
// are regenerated. The other three seeds derive from it: cluster_bitflip
// flips bit 0x04 of byte len/2, cluster_p_lie sets bytes 5 and 6 (the low
// bytes of p) to 0xff, cluster_truncated keeps the first len*3/4 bytes.
func TestFuzzCorpusClusterValid(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzRestoreCluster/cluster_valid")
	if err != nil {
		t.Fatal(err)
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	if header != "go test fuzz v1" {
		t.Fatalf("unexpected corpus header %q", header)
	}
	body = strings.TrimSpace(body)
	quoted, ok := strings.CutPrefix(body, "[]byte(")
	if !ok || !strings.HasSuffix(quoted, ")") {
		t.Fatalf("corpus entry is not a []byte: %.40q", body)
	}
	seed, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatal(err)
	}

	cl, err := NewCluster(3, fuzzClusterCfg)
	if err != nil {
		t.Fatal(err)
	}
	src := UniformSource{Seed: 5, BatchLen: 150, Lo: 0, Hi: 100}
	cl.ProcessRound(src)
	cl.ProcessRound(src)
	want, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(seed), want) {
		t.Fatalf("cluster_valid is stale (%d bytes, fresh snapshot %d bytes): regenerate testdata/fuzz/FuzzRestoreCluster", len(seed), len(want))
	}
	if _, err := RestoreCluster(fuzzClusterCfg, []byte(seed)); err != nil {
		t.Fatalf("cluster_valid does not restore: %v", err)
	}
}
