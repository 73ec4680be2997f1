package bench

import "io"

// AblationRow measures the effect of one Sec 5 optimization setting.
type AblationRow struct {
	Label string
	// FirstBatchNS is the virtual time of the reservoir fill round, which
	// local thresholding targets.
	FirstBatchNS float64
	// RoundNS is the steady-state per-round time.
	RoundNS float64
}

// Ablation quantifies first-batch local thresholding, the Sec 5
// optimization that bounds the fill round when b >> k, on a mid-sized
// configuration. The other one, 32-item blocked skipping, is the only
// weighted skip scan; BenchmarkWeightedScan in internal/core measures it
// against the plain loop on real hardware.
func Ablation(s Scale, w io.Writer) []AblationRow {
	nodes := s.Nodes[min(1, len(s.Nodes)-1)]
	p := nodes * s.PEsPerNode
	k := s.WeakK[min(1, len(s.WeakK)-1)]
	b := s.WeakBatch[len(s.WeakBatch)-1] // large batch: b >> k
	fprintf(w, "\n== Sec 5 ablation: ours-8, %d PEs, b = %s, k = %s ==\n", p, fmtCount(b), fmtCount(k))
	fprintf(w, "%-34s %16s %16s\n", "configuration", "fill round (ms)", "steady round (ms)")
	variants := []struct {
		label string
		noLT  bool
	}{
		{"both optimizations (paper)", false},
		{"no local thresholding", true},
	}
	var out []AblationRow
	for _, v := range variants {
		r := Run(RunParams{
			P: p, K: k, BatchPerPE: b, Algo: Algos()[1],
			Warmup: 1, Measure: s.Measure,
			Seed: seedFor(s.Seed, 9, b, k), Model: s.Model,
			NoLocalThreshold: v.noLT,
		})
		row := AblationRow{
			Label:        v.label,
			FirstBatchNS: r.TotalNS - r.RoundNS*float64(s.Measure),
			RoundNS:      r.RoundNS,
		}
		out = append(out, row)
		fprintf(w, "%-34s %16.3f %16.3f\n", v.label, row.FirstBatchNS/1e6, row.RoundNS/1e6)
	}
	return out
}
