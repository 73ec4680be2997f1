package main

import (
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"reservoir/internal/bench"
)

// TestPaperTinyPinned regenerates `reservoir-bench -exp all -scale tiny`
// in process and compares it with the committed BENCH_paper_tiny.json:
// every result's name, parameters and metrics must match exactly. Only
// the fields that describe the producing host (created_at, go, cpus) may
// differ. A change that moves the paper figures on purpose regenerates
// the file with
//
//	go run ./cmd/reservoir-bench -exp all -scale tiny -json BENCH_paper_tiny.json
func TestPaperTinyPinned(t *testing.T) {
	want, err := bench.ReadReportFile("../../BENCH_paper_tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runExperiments("all", bench.TinyScale(), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through JSON so both sides hold the same dynamic types
	// (a parameter written as an int reads back as a float64).
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got bench.Report
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*bench.Report{want, &got} {
		r.CreatedAt, r.Go, r.CPUs = "", "", 0
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, pinned file has %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if g, w := got.Results[i], want.Results[i]; !reflect.DeepEqual(g, w) {
			t.Errorf("result %d:\n  got  %+v\n  want %+v", i, g, w)
		}
	}
	got.Results, want.Results = nil, nil
	if !reflect.DeepEqual(&got, want) {
		t.Errorf("report header:\n  got  %+v\n  want %+v", got, *want)
	}
}
