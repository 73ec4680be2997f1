// Command reservoir-loadgen drives a live multi-process cluster
// (reservoir-serve node mode) through its rank-0 control API and emits a
// machine-readable BENCH_*.json report in the shared schema of
// internal/bench: per batch size, throughput, p50/p95/p99 round latency,
// the cluster-wide traffic deltas and the per-phase breakdown. With
// -sample-out it also writes the merged sample as a dump that
// reservoir-verify -match replays on the simulator; with -chaos it rides
// out node kill/restart cycles. scripts/e2e_cluster.sh,
// scripts/chaos_cluster.sh and scripts/compose_cluster.sh run it.
//
//	reservoir-loadgen -cluster http://127.0.0.1:8080 -rounds 30 -batch 20000 -sample-out cluster_sample.json
//	reservoir-loadgen -cluster http://127.0.0.1:8080 -batch 5000,20000,50000
//	reservoir-loadgen -cluster http://127.0.0.1:8080 -chaos -interval 250ms -scenario pareto_burst
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"reservoir/internal/workload/scenario"
)

type config struct {
	cluster   string
	out       string
	name      string
	batch     []int
	rounds    int
	scen      *scenario.Spec
	sampleOut string
	chaos     bool
	chaosWait time.Duration
	interval  time.Duration
}

func main() {
	var cfg config
	var batchFlag, scenarioFlag string
	flag.StringVar(&cfg.cluster, "cluster", "", "base URL of the cluster's rank-0 node (reservoir-serve -peers); required")
	flag.StringVar(&cfg.out, "out", "BENCH_cluster.json", "output report path")
	flag.StringVar(&cfg.name, "name", "cluster", "report name")
	flag.StringVar(&batchFlag, "batch", "1000,10000", "comma-separated items per PE per round")
	flag.IntVar(&cfg.rounds, "rounds", 20, "rounds posted per batch size")
	flag.StringVar(&scenarioFlag, "scenario", "", "workload scenario preset to ingest instead of the primitive uniform source")
	flag.StringVar(&cfg.sampleOut, "sample-out", "", "write the merged sample as a verifiable dump for reservoir-verify -match")
	flag.BoolVar(&cfg.chaos, "chaos", false, "tolerate node kill/restart cycles: retry requests through connection errors and control-plane downtime")
	flag.DurationVar(&cfg.chaosWait, "chaos-timeout", 3*time.Minute, "with -chaos: give up after this long without a successful request")
	flag.DurationVar(&cfg.interval, "interval", 0, "pause between round requests (gives a chaos harness time to inject faults mid-run)")
	flag.Parse()

	if cfg.cluster == "" {
		fmt.Fprintln(os.Stderr, "reservoir-loadgen: -cluster is required")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if cfg.batch, err = parseInts(batchFlag); err != nil {
		fatalf("-batch: %v", err)
	}
	if scenarioFlag != "" {
		sp, ok := scenario.Preset(scenarioFlag)
		if !ok {
			fatalf("-scenario: unknown scenario %q (have: %s)", scenarioFlag, strings.Join(scenario.Names(), ", "))
		}
		cfg.scen = &sp
	}
	runClusterBench(cfg)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
