// Command benchmark is the repository's benchmark. It builds the sampling
// system inside its own process, from the same public constructors
// cmd/reservoir-serve uses, drives it over loopback HTTP from at most two
// client connections, checks its outputs, and prints every metric by name
// with its unit. See README.md for the workloads, the metrics and the
// commands.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run builds its system; setup_s is the
// median.
const setupRepeats = 21

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of the sampler, the synthetic stream and the body generator")
	seconds := fs.Float64("seconds", 20, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs traced: prints the per-layer metrics and writes a Chrome trace")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes <workload>.trace.json to")
	out := fs.String("out", "", "also write every measured metric as JSON to this file")
	runs := fs.Int("runs", 0, "run each workload this many times, each in its own process with seeds seed, seed+1, ..., alternating the workload order, and print medians and quartiles")
	compare := fs.Bool("compare", false, "compare two -runs -out files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "all" || *runs > 0 {
		selected := names
		if *name != "all" {
			if _, ok := findWorkload(*name); !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
				return 2
			}
			selected = []string{*name}
		}
		return repeat(selected, max(*runs, 1), *seed, *seconds, *trace, *traceDir, *out, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s, or all)\n", *name, strings.Join(names, ", "))
		return 2
	}

	workDir := filepath.Join(".bench_build", "work", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(workDir)
	res, err := runWorkload(w, *seed, runOptions{
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
		workDir:  workDir,
		setups:   setupRepeats,
	})
	if err == nil {
		err = checkFinite(res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", w.name+":", err)
		if res != nil {
			res.Error = err.Error()
			res.Correct = false
			writeResult(*out, res, stderr)
		}
		printLine(stdout, res, nil)
		return 1
	}
	printReport(stdout, res)
	if !writeResult(*out, res, stderr) {
		return 1
	}
	set := endToEnd
	if res.Trace {
		set = perLayer
	}
	printLine(stdout, res, set)
	return 0
}

// checkFinite rejects a result with a value JSON cannot carry, which only
// an empty sample of requests produces.
func checkFinite(res *result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%v); the window saw too few requests", name, m.Value)
		}
	}
	return nil
}

// printReport prints every measured metric, one per line, with its unit,
// then the counts and the host.
func printReport(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed=%d window=%gs %s: correct=%v attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Correct, res.Attempted, res.Failed)
	for _, list := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range list {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.Name, m.Value, m.Unit)
			}
		}
	}
	fmt.Fprintf(w, "  rounds=%d reads=%d ops_attempted=%d ops_failed=%d num_cpu=%d gomaxprocs=%d go=%s\n",
		res.Counts["rounds"], res.Counts["reads"], res.Attempted, res.Failed,
		res.Host.NumCPU, res.Host.GOMAXPROCS, res.Host.Go)
}

// printLine prints the one-line JSON summary, the last line of standard
// output: the metrics of set, or none when set is nil.
func printLine(w io.Writer, res *result, set []metricDef) {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Metrics: map[string]metric{}}
	if res != nil {
		line.Correct, line.Attempted, line.Failed = res.Correct && set != nil, res.Attempted, res.Failed
	}
	for _, d := range set {
		line.Metrics[d.Name] = res.Metrics[d.Name]
	}
	b, _ := json.Marshal(line)
	fmt.Fprintln(w, string(b))
}

func writeResult(path string, v any, stderr io.Writer) bool {
	if path == "" {
		return true
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: writing result:", err)
		return false
	}
	return true
}

// runSet is the -out file of -runs: every run of every workload.
type runSet struct {
	Seconds float64   `json:"seconds"`
	Trace   bool      `json:"trace"`
	Host    host      `json:"host"`
	Runs    []*result `json:"runs"`
}

// repeat runs each named workload n times, each run in a child process of
// this binary, alternating the workload order from one round of runs to
// the next, and prints each metric's median and quartiles.
func repeat(names []string, n int, seed uint64, seconds float64, trace int, traceDir, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	dir := filepath.Join(".bench_build", "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	set := runSet{Seconds: seconds, Trace: trace == 1, Host: thisHost()}
	failed := false
	for i := 0; i < n; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.json", name, i))
			s := seed + uint64(i)
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-trace-dir", traceDir, "-out", file)
			cmd.Stdout, cmd.Stderr = io.Discard, stderr
			runErr := cmd.Run()
			var res result
			if b, err := os.ReadFile(file); err == nil {
				err = json.Unmarshal(b, &res)
				runErr = errors.Join(runErr, err)
			} else {
				runErr = errors.Join(runErr, err)
			}
			if runErr != nil || !res.Correct {
				failed = true
				fmt.Fprintf(stderr, "benchmark: %s seed %d failed: %v %s\n", name, s, runErr, res.Error)
				continue
			}
			fmt.Fprintf(stderr, "benchmark: run %d/%d %s seed %d done\n", i+1, n, name, s)
			set.Runs = append(set.Runs, &res)
		}
	}
	printSummary(stdout, set.Runs, names)
	if !writeResult(out, set, stderr) || failed {
		return 1
	}
	return 0
}

// printSummary prints, per workload and metric, the median and quartiles
// over the runs and the quartile spread as a share of the median.
func printSummary(w io.Writer, runs []*result, names []string) {
	fmt.Fprintf(w, "%-20s %-34s %6s %14s %14s %14s %8s %s\n", "workload", "metric", "runs", "median", "q1", "q3", "spread", "unit")
	for _, name := range names {
		for _, list := range [][]metricDef{endToEnd, perLayer, reportOnly} {
			for _, d := range list {
				xs := values(runs, name, d.Name)
				if len(xs) == 0 {
					continue
				}
				q1, med, q3 := quartiles(xs)
				fmt.Fprintf(w, "%-20s %-34s %6d %14.6g %14.6g %14.6g %7.1f%% %s\n",
					name, d.Name, len(xs), med, q1, q3, 100*relative(q3-q1, med), d.Unit)
			}
		}
	}
}

// values collects one metric of one workload over runs.
func values(runs []*result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles applies the catalogue's directions and bounds (those of
// BENCHMARK.json) to every (end-to-end metric, workload) pair of two -runs
// result files, parent A then change B, and prints one row per pair.
// Per-layer and report-only metrics, which have no bound, are printed
// without a verdict. It reports whether any pair got worse.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	var a, b runSet
	for _, f := range []struct {
		path string
		v    *runSet
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.v); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	var names []string
	for _, r := range a.Runs {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	worse := false
	fmt.Fprintf(w, "%-20s %-34s %14s %14s %9s %s\n", "workload", "metric", "median A", "median B", "change", "verdict")
	for _, name := range names {
		for _, d := range slices.Concat(endToEnd, perLayer, reportOnly) {
			xa, xb := values(a.Runs, name, d.Name), values(b.Runs, name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v, change := verdict(xa, xb, d)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-20s %-34s %14.6g %14.6g %8.1f%% %s\n", name, d.Name, median(xa), median(xb), 100*change, v)
		}
	}
	return worse, nil
}

// setupFloorS is the least setup_s change, in seconds, -compare can call
// worse: set-ups take milliseconds, where a share alone flags scheduler
// noise.
const setupFloorS = 0.005

// verdict compares change runs xb against parent runs xa under d's
// direction and bound. change is how much worse B's median is, as a
// share of A's (negative when better). A spread wider than the bound on
// either side leaves the pair unresolved, unless every B run beats every
// A run.
func verdict(xa, xb []float64, d metricDef) (string, float64) {
	qa1, ma, qa3 := quartiles(xa)
	qb1, mb, qb3 := quartiles(xb)
	change := relative(mb-ma, ma)
	if d.Better == "higher" {
		change = -change
	}
	if d.Bound == 0 {
		return "-", change
	}
	if d.Name == "setup_s" && mb-ma <= setupFloorS {
		return "unchanged", change
	}
	spread := max(relative(qa3-qa1, ma), relative(qb3-qb1, mb))
	if spread > d.Bound {
		better := slices.Max(xb) < slices.Min(xa)
		if d.Better == "higher" {
			better = slices.Min(xb) > slices.Max(xa)
		}
		if better {
			return "unchanged", change
		}
		return "unresolved", change
	}
	if change > d.Bound {
		return "worse", change
	}
	return "unchanged", change
}

// relative is diff as a share of base; a zero diff is 0 even on a zero
// base, which counts that stay 0 have.
func relative(diff, base float64) float64 {
	if diff == 0 {
		return 0
	}
	return diff / math.Abs(base)
}
