// Benchmarks regenerating the paper's figures and tables at TinyScale
// (seconds-fast). One benchmark per figure/table; the full-size
// regeneration is cmd/reservoir-bench (see EXPERIMENTS.md). Reported
// custom metrics are virtual (cost-model) times and derived quantities, so
// they are deterministic across machines; ns/op is host wall time.
package reservoir_test

import (
	"io"
	"testing"

	"reservoir"
	"reservoir/internal/bench"
)

// BenchmarkFig3WeakScaling regenerates Figure 3 (weak scaling speedups of
// ours / ours-8 / gather over ours@1 node).
func BenchmarkFig3WeakScaling(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.WeakScaling(s, io.Discard)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Speedup, "maxnode-speedup")
	}
}

// BenchmarkFig4StrongScaling regenerates Figure 4 (strong scaling
// speedups at fixed total batch size).
func BenchmarkFig4StrongScaling(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.StrongScaling(s, io.Discard)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Speedup, "maxnode-speedup")
	}
}

// BenchmarkFig5ThroughputPerPE regenerates Figure 5 (per-PE throughput of
// the strong scaling runs, items per virtual second).
func BenchmarkFig5ThroughputPerPE(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.StrongScaling(s, io.Discard)
		var ours float64
		for _, r := range rows {
			if r.Algo == "ours" {
				ours = r.Result.ThroughputPerPE
			}
		}
		b.ReportMetric(ours, "items/vsec/PE")
	}
}

// BenchmarkFig6Composition regenerates Figure 6 (running time composition
// of ours-8 vs gather, normalized to the slower algorithm).
func BenchmarkFig6Composition(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.Composition(s, io.Discard)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Gather.Gather, "gather-fraction")
	}
}

// BenchmarkTabRecursionDepth regenerates the Sec 6.3 in-text recursion
// depth study (single- vs multi-pivot selection).
func BenchmarkTabRecursionDepth(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.RecursionDepth(s, io.Discard)
		last := rows[len(rows)-1]
		b.ReportMetric(last.Depth1, "depth-1pivot")
		b.ReportMetric(last.Depth8, "depth-8pivot")
	}
}

// BenchmarkTabInsertions regenerates the Lemma 2 / Theorem 3 insertion
// bound validation.
func BenchmarkTabInsertions(b *testing.B) {
	s := bench.TinyScale()
	for i := 0; i < b.N; i++ {
		rows := bench.InsertionBound(s, io.Discard)
		last := rows[len(rows)-1]
		b.ReportMetric(last.MeasuredMeanPerPE, "insertions/PE")
	}
}

// BenchmarkEndToEndRound measures the host-side cost of one distributed
// mini-batch round (16 PEs, 10k items each) — a wall-clock sanity
// benchmark of the whole stack.
func BenchmarkEndToEndRound(b *testing.B) {
	s := bench.TinyScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bench.Run(bench.RunParams{
			P: 16, K: 100, BatchPerPE: 10_000, Algo: bench.Algos()[1],
			Warmup: 1, Measure: 1, Seed: uint64(i), Model: s.Model,
		})
	}
}

// snapshotBenchCluster is a p=4, k=256 weighted cluster past its fill
// phase, the state BenchmarkClusterSnapshot and BenchmarkRestoreCluster
// serialize.
func snapshotBenchCluster(b *testing.B) (*reservoir.Cluster, reservoir.Config) {
	cfg := reservoir.Config{K: 256, Weighted: true, Seed: 3}
	cl, err := reservoir.NewCluster(4, cfg)
	if err != nil {
		b.Fatal(err)
	}
	src := reservoir.UniformSource{Seed: 5, BatchLen: 2000, Lo: 0, Hi: 100}
	for r := 0; r < 4; r++ {
		cl.ProcessRound(src)
	}
	return cl, cfg
}

// BenchmarkClusterSnapshot measures serializing a whole cluster's
// sampler state, the per-round boundary cost of durable runs.
func BenchmarkClusterSnapshot(b *testing.B) {
	cl, _ := snapshotBenchCluster(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreCluster measures rebuilding a cluster from a snapshot,
// the recovery and rollback cost.
func BenchmarkRestoreCluster(b *testing.B) {
	cl, cfg := snapshotBenchCluster(b)
	blob, err := cl.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := reservoir.RestoreCluster(cfg, blob); err != nil {
			b.Fatal(err)
		}
	}
}
