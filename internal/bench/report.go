package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// SchemaVersion identifies the BENCH_*.json result format shared by
// reservoir-bench (virtual-time paper experiments) and reservoir-loadgen
// (wall-clock multi-process cluster runs). docs/BENCHMARKS.md documents
// the schema.
const SchemaVersion = "reservoir-bench/v1"

// Report is the machine-readable envelope every benchmark tool emits: one
// file per invocation, one Result per measured configuration.
type Report struct {
	Schema string `json:"schema"`
	// Tool is the producing binary ("reservoir-bench" or
	// "reservoir-loadgen").
	Tool string `json:"tool"`
	// Name labels the run (e.g. "service_baseline"); BENCH_<name>.json is
	// the conventional file name.
	Name      string `json:"name"`
	CreatedAt string `json:"created_at,omitempty"`
	// Environment of the producing process.
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	// Params are invocation-level parameters (scale, seeds, flags).
	Params map[string]any `json:"params,omitempty"`
	// Results hold one entry per measured configuration.
	Results []Result `json:"results"`
}

// Result is one measured configuration: free-form identifying params plus
// a flat metric map, so differently shaped experiments (virtual-time
// figures, HTTP latency sweeps) share one schema that diffing and plotting
// tools can consume uniformly.
type Result struct {
	// Name identifies the configuration within the report, e.g.
	// "fig3/ours/k=1000/n=4" or "clients=8,batch=10000".
	Name string `json:"name"`
	// Params are the configuration knobs that produced the metrics.
	Params map[string]any `json:"params,omitempty"`
	// Metrics maps metric name to value. Unit conventions: *_ns virtual
	// or wall nanoseconds, *_ms wall milliseconds, *_per_s rates, bare
	// names are counts or ratios.
	Metrics map[string]float64 `json:"metrics"`
}

// NewReport returns a Report stamped with the producing environment.
// CreatedAt is filled by the caller (tools stamp time.Now; tests leave it
// empty for reproducible output).
func NewReport(tool, name string) *Report {
	return &Report{
		Schema: SchemaVersion,
		Tool:   tool,
		Name:   name,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
	}
}

// Add appends one result.
func (r *Report) Add(name string, params map[string]any, metrics map[string]float64) {
	r.Results = append(r.Results, Result{Name: name, Params: params, Metrics: metrics})
}

// WriteFile writes the report as indented JSON (the BENCH_*.json format).
func (r *Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadReportFile loads a BENCH_*.json file and checks its schema tag.
func ReadReportFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// LatencySummary condenses a set of request durations into the quantiles
// the service benchmarks report.
type LatencySummary struct {
	Count  int
	MeanMS float64
	P50MS  float64
	P95MS  float64
	P99MS  float64
	MaxMS  float64
}

// Summarize computes nearest-rank quantiles over request durations.
func Summarize(durs []time.Duration) LatencySummary {
	var s LatencySummary
	s.Count = len(durs)
	if s.Count == 0 {
		return s
	}
	ms := make([]float64, len(durs))
	total := 0.0
	for i, d := range durs {
		ms[i] = float64(d) / float64(time.Millisecond)
		total += ms[i]
	}
	sort.Float64s(ms)
	q := func(p float64) float64 {
		rank := int(p*float64(len(ms))+0.9999999) - 1
		if rank < 0 {
			rank = 0
		}
		if rank >= len(ms) {
			rank = len(ms) - 1
		}
		return ms[rank]
	}
	s.MeanMS = total / float64(len(ms))
	s.P50MS = q(0.50)
	s.P95MS = q(0.95)
	s.P99MS = q(0.99)
	s.MaxMS = ms[len(ms)-1]
	return s
}

// Metrics merges the summary into m under prefix ("latency" gives
// latency_p50_ms etc.).
func (l LatencySummary) Metrics(prefix string, m map[string]float64) {
	m[prefix+"_mean_ms"] = l.MeanMS
	m[prefix+"_p50_ms"] = l.P50MS
	m[prefix+"_p95_ms"] = l.P95MS
	m[prefix+"_p99_ms"] = l.P99MS
	m[prefix+"_max_ms"] = l.MaxMS
}

// --- converters from the experiment row types --------------------------------

// AddFigRows appends weak/strong scaling rows (Figures 3-5).
func (r *Report) AddFigRows(rows []FigRow) {
	for _, row := range rows {
		res := row.Result
		r.Add(
			fmt.Sprintf("%s/%s/k=%d/b=%d/n=%d", row.Exp, row.Algo, row.K, row.BatchB, row.Nodes),
			map[string]any{
				"exp": row.Exp, "algo": row.Algo, "nodes": row.Nodes,
				"p": row.P, "k": row.K, "batch": row.BatchB,
			},
			map[string]float64{
				"speedup":             row.Speedup,
				"round_ns":            res.RoundNS,
				"throughput_per_pe_s": res.ThroughputPerPE,
				"msgs_per_round":      res.MsgsPerRound,
				"words_per_round":     res.WordsPerRound,
				"avg_selection_depth": res.AvgSelectionDepth,
			},
		)
	}
}

// AddCompositionRows appends Figure 6 phase-fraction rows.
func (r *Report) AddCompositionRows(rows []CompositionRow) {
	for _, row := range rows {
		r.Add(
			fmt.Sprintf("fig6/%s/n=%d", row.Setting, row.Nodes),
			map[string]any{"exp": "fig6", "setting": row.Setting, "nodes": row.Nodes},
			map[string]float64{
				"ours_insert": row.Ours.Insert, "ours_select": row.Ours.Select,
				"ours_threshold": row.Ours.Threshold, "ours_total": row.Ours.Total,
				"gather_insert": row.Gather.Insert, "gather_select": row.Gather.Select,
				"gather_threshold": row.Gather.Threshold, "gather_gather": row.Gather.Gather,
				"gather_total": row.Gather.Total,
			},
		)
	}
}

// AddDepthRows appends the Sec 6.3 recursion-depth rows.
func (r *Report) AddDepthRows(rows []DepthRow) {
	for _, row := range rows {
		r.Add(
			fmt.Sprintf("depth/k=%d", row.K),
			map[string]any{"exp": "depth", "k": row.K},
			map[string]float64{
				"depth_1pivot": row.Depth1, "depth_8pivot": row.Depth8, "ratio": row.Ratio,
			},
		)
	}
}

// AddAblationRows appends the Sec 5 optimization ablation rows.
func (r *Report) AddAblationRows(rows []AblationRow) {
	for _, row := range rows {
		r.Add(
			"ablation/"+row.Label,
			map[string]any{"exp": "ablation", "config": row.Label},
			map[string]float64{
				"fill_round_ns":   row.FirstBatchNS,
				"steady_round_ns": row.RoundNS,
			},
		)
	}
}

// AddInsertionRows appends the Lemma 2 / Theorem 3 validation rows.
func (r *Report) AddInsertionRows(rows []InsertionRow) {
	for _, row := range rows {
		r.Add(
			fmt.Sprintf("insertions/k=%d/p=%d", row.K, row.P),
			map[string]any{"exp": "insertions", "k": row.K, "p": row.P},
			map[string]float64{
				"mean_per_pe":           row.MeasuredMeanPerPE,
				"mean_per_pe_predicted": row.PredictedMeanPerPE,
				"max_pe":                row.MeasuredMaxPE,
				"max_pe_predicted":      row.PredictedMaxPE,
			},
		)
	}
}
