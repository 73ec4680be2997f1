package bench

import (
	"path/filepath"
	"testing"
	"time"
)

func TestReportRoundTrip(t *testing.T) {
	rep := NewReport("reservoir-loadgen", "unit")
	rep.Params = map[string]any{"mode": "wait"}
	rep.Add("clients=2,batch=100",
		map[string]any{"clients": 2, "batch": 100},
		map[string]float64{"throughput_items_per_s": 1e6, "latency_p99_ms": 3.5})
	if rep.Schema != SchemaVersion || rep.CPUs < 1 || rep.Go == "" {
		t.Fatalf("environment not stamped: %+v", rep)
	}

	path := filepath.Join(t.TempDir(), "BENCH_unit.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tool != "reservoir-loadgen" || len(got.Results) != 1 {
		t.Fatalf("round trip: %+v", got)
	}
	r := got.Results[0]
	if r.Metrics["throughput_items_per_s"] != 1e6 || r.Metrics["latency_p99_ms"] != 3.5 {
		t.Fatalf("metrics lost: %+v", r.Metrics)
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	rep := NewReport("x", "y")
	rep.Schema = "something/v9"
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReportFile(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

func TestSummarizeQuantiles(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.P99MS != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	// 100 durations: 1ms..100ms. Nearest-rank: p50 = 50ms, p95 = 95ms,
	// p99 = 99ms, max = 100ms, mean = 50.5ms.
	durs := make([]time.Duration, 100)
	for i := range durs {
		// Insert in shuffled-ish order to exercise the sort.
		durs[i] = time.Duration((i*37)%100+1) * time.Millisecond
	}
	s := Summarize(durs)
	if s.Count != 100 || s.P50MS != 50 || s.P95MS != 95 || s.P99MS != 99 || s.MaxMS != 100 {
		t.Fatalf("quantiles: %+v", s)
	}
	if s.MeanMS < 50.49 || s.MeanMS > 50.51 {
		t.Fatalf("mean: %+v", s)
	}

	m := map[string]float64{}
	s.Metrics("latency", m)
	if m["latency_p95_ms"] != 95 || m["latency_max_ms"] != 100 {
		t.Fatalf("metric merge: %v", m)
	}
}

func TestReportConverters(t *testing.T) {
	rep := NewReport("reservoir-bench", "conv")
	rep.AddFigRows([]FigRow{{Exp: "fig3", Algo: "ours", Nodes: 4, P: 16, K: 100, BatchB: 1000,
		Speedup: 3.7, Result: RunResult{RoundNS: 5e6, ThroughputPerPE: 2e5}}})
	rep.AddCompositionRows([]CompositionRow{{Setting: "strong B2", Nodes: 4,
		Ours: PhaseFractions{Insert: 0.4, Total: 0.6}, Gather: PhaseFractions{Gather: 0.5, Total: 1}}})
	rep.AddDepthRows([]DepthRow{{K: 1000, Depth1: 4.3, Depth8: 1.8, Ratio: 2.4}})
	rep.AddInsertionRows([]InsertionRow{{K: 100, P: 8, MeasuredMeanPerPE: 40, PredictedMeanPerPE: 42}})
	rep.AddAblationRows([]AblationRow{{Label: "no local thresholding", FirstBatchNS: 8e6, RoundNS: 2e6}})
	if len(rep.Results) != 5 {
		t.Fatalf("got %d results, want 5", len(rep.Results))
	}
	if rep.Results[0].Name != "fig3/ours/k=100/b=1000/n=4" {
		t.Fatalf("fig row name: %q", rep.Results[0].Name)
	}
	if rep.Results[0].Metrics["speedup"] != 3.7 {
		t.Fatalf("fig row metrics: %v", rep.Results[0].Metrics)
	}
	if rep.Results[4].Metrics["steady_round_ns"] != 2e6 {
		t.Fatalf("ablation metrics: %v", rep.Results[4].Metrics)
	}
}
