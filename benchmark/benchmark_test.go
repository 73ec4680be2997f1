package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
	"reservoir/internal/store"
	"reservoir/internal/transport"
	"reservoir/internal/transport/tcpnet"
)

// benchmarkJSON is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	slices.Sort(out)
	return out
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, the program measures %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, the program measures %+v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if got, ok := findWorkload(w.Name); !ok || got.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program why %q", w.Name, w.Why, got.why)
		}
	}
	if len(names) != len(workloads()) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads()))
	}
}

// TestWorkloadsSmoke runs every workload briefly at reduced size, traced,
// through the correctness gate, and checks that the lines a run prints
// name exactly BENCHMARK.json's metrics.
func TestWorkloadsSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			traceDir := t.TempDir()
			res, err := runWorkload(w.reduced(), 1, runOptions{
				seconds:  time.Second,
				trace:    true,
				traceDir: traceDir,
				workDir:  t.TempDir(),
				setups:   2,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := checkFinite(res); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(filepath.Join(traceDir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Tid  int     `json:"tid"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &chrome); err != nil {
				t.Fatalf("trace file is not JSON: %v", err)
			}
			spans := 0
			for _, e := range chrome.TraceEvents {
				if e.Ph == "X" {
					spans++
				}
			}
			if spans == 0 {
				t.Error("trace file has no complete (ph X) events")
			}
			for _, c := range []struct {
				set  []metricDef
				want []metricDef
			}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
				var out bytes.Buffer
				printLine(&out, res, c.set)
				var line struct {
					Correct bool              `json:"correct"`
					Metrics map[string]metric `json:"metrics"`
				}
				if err := json.Unmarshal(out.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				var got []string
				for name, m := range line.Metrics {
					got = append(got, name)
					if m.Unit == "" {
						t.Errorf("metric %s printed without a unit", name)
					}
				}
				slices.Sort(got)
				if !line.Correct || !slices.Equal(got, metricNames(c.want)) {
					t.Errorf("printed correct=%v metrics %v, BENCHMARK.json has %v", line.Correct, got, metricNames(c.want))
				}
			}
		})
	}
}

// TestGateRejectsTamperedSample feeds the gate a correct sample, then the
// same sample with one weight or one ID changed.
func TestGateRejectsTamperedSample(t *testing.T) {
	for _, name := range []string{"node_small", "service_ingest"} {
		w, _ := findWorkload(name)
		w = w.reduced().withSeed(7)
		in, err := makeInputs(w)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 12
		items, err := replay(w, in, rounds)
		if err != nil {
			t.Fatal(err)
		}
		sample := make([]service.WireItem, len(items))
		for i, it := range items {
			sample[i] = service.WireItem{W: it.W, ID: it.ID}
		}
		var posted int64
		for r := 0; r < rounds; r++ {
			posted += in.itemsIn(w, r)
		}
		g := gateInput{
			warmSample: sample, warmRounds: rounds, finalSample: sample, rounds: rounds,
			itemsServer: posted, itemsPosted: posted,
		}
		if err := checkGate(w, in, g); err != nil {
			t.Fatalf("%s: untampered sample: %v", name, err)
		}
		tamper := []func(s []service.WireItem){
			func(s []service.WireItem) { s[3].W *= 1 + 1e-12 },
			func(s []service.WireItem) { s[5].ID ^= 1 },
		}
		for i, f := range tamper {
			bad := slices.Clone(sample)
			f(bad)
			warm, final := g, g
			warm.warmSample = bad
			final.finalSample = bad
			if checkGate(w, in, warm) == nil || checkGate(w, in, final) == nil {
				t.Errorf("%s: tampered sample %d passed the gate", name, i)
			}
		}
		short := g
		short.finalSample = sample[1:]
		miscounted := g
		miscounted.itemsServer++
		failed := g
		failed.failed = 1
		for _, bad := range []gateInput{short, miscounted, failed} {
			if checkGate(w, in, bad) == nil {
				t.Errorf("%s: gate passed %+v", name, bad)
			}
		}
	}
}

// TestTracedConnKeepsTransportSurface fails if the tracing wrapper drops
// any method of *tcpnet.Transport: the program finds Flush, Stats, FlushNS
// and the fault-tolerant surface only through interface assertions, so a
// dropped method silently changes what it does.
func TestTracedConnKeepsTransportSurface(t *testing.T) {
	wrapped := reflect.TypeOf(&tracedConn{})
	inner := reflect.TypeOf(&tcpnet.Transport{})
	for i := 0; i < inner.NumMethod(); i++ {
		m := inner.Method(i)
		got, ok := wrapped.MethodByName(m.Name)
		if !ok {
			t.Errorf("tracedConn lacks %s", m.Name)
			continue
		}
		if got.Type.NumIn() != m.Type.NumIn() || got.Type.NumOut() != m.Type.NumOut() {
			t.Errorf("tracedConn.%s has type %v, the transport's is %v", m.Name, got.Type, m.Type)
		}
	}
	var c any = &tracedConn{}
	if _, ok := c.(transport.Flusher); !ok {
		t.Error("tracedConn is not a transport.Flusher")
	}
	if _, ok := c.(transport.StatsSource); !ok {
		t.Error("tracedConn is not a transport.StatsSource")
	}
	if _, ok := c.(interface{ FlushNS() int64 }); !ok {
		t.Error("tracedConn has no FlushNS")
	}

	// nodesvc accepts a store only on a fault-tolerant conn.
	trs, err := tcpnet.LoopbackFT(1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer trs[0].Close()
	st, err := store.Open(t.TempDir(), store.WithSnapshotRetention(snapshotRetention))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w, _ := findWorkload("node_durable_reads")
	_, err = nodesvc.New(nodesvc.Options{
		Conn:   &tracedConn{Transport: trs[0], t: newTracer(1)},
		Config: w.cfg,
		Store:  st,
	})
	if err != nil {
		t.Fatalf("nodesvc refused the traced fault-tolerant conn: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Unit: "ms", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "y", Unit: "1/s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{103, 104, 102, 103, 103}, "unchanged"},
		{lower, steady, []float64{120, 121, 119, 120, 120}, "worse"},
		{higher, steady, []float64{80, 81, 79, 80, 80}, "worse"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "unchanged"},
		{lower, steady, []float64{60, 100, 140, 80, 120}, "unresolved"},
		{lower, []float64{200, 100, 300, 150, 250}, []float64{50, 60, 55, 40, 45}, "unchanged"},
	} {
		if got, _ := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("verdict(%v -> %v, %s) = %s, want %s", c.a, c.b, c.d.Better, got, c.want)
		}
	}
	if got, _ := verdict(steady, steady, metricDef{Better: "lower"}); got != "-" {
		t.Errorf("unbounded metric verdict = %s, want -", got)
	}
	setup := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	if got, _ := verdict([]float64{0.004, 0.004, 0.004}, []float64{0.008, 0.008, 0.008}, setup); got != "unchanged" {
		t.Errorf("setup_s 4 ms -> 8 ms verdict = %s, want unchanged (under the 5 ms floor)", got)
	}
	if got, _ := verdict([]float64{0.04, 0.04, 0.04}, []float64{0.08, 0.08, 0.08}, setup); got != "worse" {
		t.Errorf("setup_s 40 ms -> 80 ms verdict = %s, want worse", got)
	}
}
