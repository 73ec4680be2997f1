package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationDirections(t *testing.T) {
	s := TinyScale()
	var buf bytes.Buffer
	rows := Ablation(s, &buf)
	if len(rows) != 2 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	byLabel := map[string]AblationRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
		if r.FirstBatchNS <= 0 || r.RoundNS <= 0 {
			t.Fatalf("non-positive times in %+v", r)
		}
	}
	both := byLabel["both optimizations (paper)"]
	noLT := byLabel["no local thresholding"]
	// Local thresholding must shrink the fill round (b >> k).
	if both.FirstBatchNS >= noLT.FirstBatchNS {
		t.Errorf("local thresholding did not help the fill round: %.0f vs %.0f",
			both.FirstBatchNS, noLT.FirstBatchNS)
	}
	if !strings.Contains(buf.String(), "ablation") {
		t.Error("missing ablation header")
	}
}

func TestSkewedWorkloadTiming(t *testing.T) {
	// The paper (Sec 6.1) reports no significant running time difference
	// between uniform and skewed weights. Assert the steady-state round
	// time stays within 20%.
	s := TinyScale()
	base := RunParams{P: 8, K: 100, BatchPerPE: 4000, Algo: Algos()[1],
		Warmup: 2, Measure: 4, Seed: 31, Model: s.Model}
	uni := Run(base)
	skewParams := base
	skewParams.Skewed = true
	skew := Run(skewParams)
	rel := skew.RoundNS / uni.RoundNS
	if rel < 0.8 || rel > 1.2 {
		t.Errorf("skewed/uniform round time ratio %.3f outside [0.8, 1.2] (%.0f vs %.0f ns)",
			rel, skew.RoundNS, uni.RoundNS)
	}
}
