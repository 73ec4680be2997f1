package accept

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"reservoir/internal/workload/scenario"
)

// smallCfg keeps test cells cheap: ~10k-item streams, hundreds of trials.
func smallCfg(algos []string, scens []scenario.Spec) Config {
	return Config{
		Algorithms: algos,
		Scenarios:  scens,
		Trials:     300,
		P:          4,
		K:          16,
		Rounds:     6,
		BatchLen:   48,
		Seed:       0xACCE97,
		Alpha:      1e-3,
	}
}

func mustPreset(t *testing.T, name string) scenario.Spec {
	t.Helper()
	sp, ok := scenario.Preset(name)
	if !ok {
		t.Fatalf("missing preset %q", name)
	}
	return sp
}

func TestCorrectSamplersAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	scens := []scenario.Spec{
		mustPreset(t, "pareto_burst"),
		mustPreset(t, "zipf_hot"),
	}
	algos := []string{"sequential", "distributed", "pipelined", "random-dist"}
	rep, err := Run(smallCfg(algos, scens))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("correct samplers rejected: %v\n%s", rep.Failures(), rep.Summary())
	}
	wantCells := len(algos) * len(scens)
	if len(rep.Cells) != wantCells || rep.Tests != wantCells*checksPerCell {
		t.Fatalf("want %d cells / %d tests, got %d / %d", wantCells, wantCells*checksPerCell, len(rep.Cells), rep.Tests)
	}
}

func TestGatherAccepted(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	rep, err := Run(smallCfg([]string{"gather"}, []scenario.Spec{mustPreset(t, "lognormal_drift")}))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("gather baseline rejected: %v\n%s", rep.Failures(), rep.Summary())
	}
}

// TestMutantRejected is the power check of the whole gate: a sampler with
// deliberately biased keys (u·w instead of -ln(u)/w) must be rejected.
// Without this test a harness that always reports pass would look green.
func TestMutantRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	cfg := smallCfg([]string{"sequential"}, []scenario.Spec{mustPreset(t, "pareto_burst")})
	cfg.Sequential = NewMutantWeighted
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("biased mutant was ACCEPTED — the suite has no statistical power\n%s", rep.Summary())
	}
	// The bias must be caught by the inclusion tests specifically, not
	// merely by a fluke in the moment checks.
	failed := map[string]bool{}
	for _, name := range rep.Failures() {
		failed[name] = true
	}
	if !failed["sequential/pareto_burst/inclusion_strata"] && !failed["sequential/pareto_burst/closed_form_k1"] {
		t.Fatalf("mutant slipped past both inclusion tests; failures: %v", rep.Failures())
	}
}

// TestMutantRejectedOnUniformStream proves the gate has power even on the
// paper's own benign stream, not just adversarial tails.
func TestMutantRejectedOnUniformStream(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	cfg := smallCfg([]string{"sequential"}, []scenario.Spec{mustPreset(t, "uniform_poisson")})
	cfg.Sequential = NewMutantWeighted
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass {
		t.Fatalf("biased mutant accepted on the uniform stream\n%s", rep.Summary())
	}
}

func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical suite")
	}
	cfg := smallCfg([]string{"sequential"}, []scenario.Spec{mustPreset(t, "zipf_hot")})
	cfg.Trials = 60
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("two identical runs produced different reports:\n%s\n%s", ja, jb)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := smallCfg([]string{"quantum"}, []scenario.Spec{mustPreset(t, "zipf_hot")})
	cfg.Trials = 2
	if _, err := Run(cfg); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	bad := scenario.Spec{Name: "bad", Law: "cauchy"}
	if _, err := Run(smallCfg([]string{"sequential"}, []scenario.Spec{bad})); err == nil {
		t.Fatal("want error for invalid scenario")
	}
}

func TestReportWriteAndRoundTrip(t *testing.T) {
	cfg := smallCfg([]string{"sequential"}, []scenario.Spec{mustPreset(t, "uniform_poisson")})
	cfg.Trials = 40
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "accept.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportVersion || len(back.Cells) != len(rep.Cells) || back.Pass != rep.Pass {
		t.Fatalf("round-trip mismatch: %+v vs %+v", back, rep)
	}
	if s := rep.Summary(); s == "" {
		t.Fatal("empty summary")
	}
}

func TestMutantSamplerBasics(t *testing.T) {
	// The mutant must still behave like a reservoir mechanically (size k,
	// items from the stream) — its only defect is distributional.
	m := NewMutantWeighted(8, 42)
	src, err := mustPresetSpec("pareto_burst").Source(9, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := src.NextBatch(0, 0)
	for i := 0; i < b.Len(); i++ {
		m.Process(b.At(i))
	}
	s := m.Sample()
	if len(s) != 8 {
		t.Fatalf("mutant sample size %d, want 8", len(s))
	}
	seen := map[uint64]bool{}
	for _, it := range s {
		if seen[it.ID] {
			t.Fatalf("duplicate item %d in mutant sample", it.ID)
		}
		seen[it.ID] = true
	}
}

func mustPresetSpec(name string) scenario.Spec {
	sp, ok := scenario.Preset(name)
	if !ok {
		panic("missing preset " + name)
	}
	return sp
}
