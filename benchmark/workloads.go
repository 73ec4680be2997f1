package main

import (
	"reservoir"
	"reservoir/internal/service"
	"reservoir/internal/workload/scenario"
)

// workload is one traffic mix: the system the benchmark builds, the
// writer's request, and the reader's request and rate.
type workload struct {
	name string
	why  string

	// Node workloads: p nodesvc servers over loopback tcpnet, built as
	// reservoir-serve node mode builds them. cfg.Seed and spec.Seed are
	// filled in from -seed.
	p          int
	cfg        reservoir.Config
	durable    bool // fault-tolerant mesh plus one store per rank
	spec       service.SyntheticSpec
	deferStats bool

	// The service workload: internal/service with a store, one cluster
	// run fed explicit JSON batches.
	service    bool
	itemsPerPE int
	bodies     int

	warmup   int // rounds posted before the window
	readPath string
	readRate int // reads per second, open loop; 0 runs no reader
}

// Sizes of the durable workloads' stores, as reservoir-serve -data uses
// them: interval fsync, and (node mode) a retained snapshot history deep
// enough for a restarted rank to roll back.
const (
	snapshotRetention = 4
	rejoinWindow      = 5 // seconds
)

// workloads are the benchmark's traffic mixes, in the order -workload all
// runs them.
func workloads() []workload {
	zipfHot, _ := scenario.Preset("zipf_hot")
	return []workload{
		{
			name: "node_bulk",
			why:  "paper setting at large mini-batches: 4 ranks, sharded pipelined scan, 50k items/rank/round; weight synthesis and the scan dominate",
			p:    4,
			cfg:  reservoir.Config{K: 256, Weighted: true, Shards: 4, Pipeline: true},
			spec: service.SyntheticSpec{BatchLen: 50000, Rounds: 1},
			// One round per request, leaving each round's selection in
			// flight for the next scan to overlap, as a cluster feeder does.
			deferStats: true,
			warmup:     300,
		},
		{
			name: "node_small",
			why:  "per-round fixed costs dominate: 1k items/rank/round on the default scan, so control request, broadcast, collectives and flushes show",
			p:    4,
			// Shards and Pipeline keep the program's defaults, so this
			// workload follows whatever scan path the program runs by
			// default.
			cfg:    reservoir.Config{K: 1024, Weighted: true},
			spec:   service.SyntheticSpec{BatchLen: 1000, Rounds: 1},
			warmup: 2000,
		},
		{
			name:       "node_durable_reads",
			why:        "fault-tolerant mesh with a store per rank, Zipf hot-key stream, and collective sample reads that drain the pipeline",
			p:          4,
			cfg:        reservoir.Config{K: 256, Weighted: true, Shards: 4, Pipeline: true},
			durable:    true,
			spec:       service.SyntheticSpec{BatchLen: 5000, Rounds: 1, Scenario: &zipfHot},
			deferStats: true,
			warmup:     300,
			readPath:   "/v1/cluster/sample",
			readRate:   50,
		},
		{
			name:       "service_ingest",
			why:        "user-data ingest: explicit JSON batches into the single-process service with a WAL; JSON decode dominates, reads are snapshot loads",
			service:    true,
			p:          4,
			cfg:        reservoir.Config{K: 256, Weighted: true},
			itemsPerPE: 1000,
			bodies:     64,
			warmup:     200,
			readRate:   100,
		},
	}
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// withSeed returns w with every seed derived from the benchmark seed: the
// sampler seed, the synthetic spec seed, and (service) the body generator.
func (w workload) withSeed(seed uint64) workload {
	w.cfg.Seed = seed
	w.spec.Seed = seed ^ 0x5eed5eed5eed5eed
	return w
}

// reduced shrinks w for the smoke test: the same system and paths, with
// small batches and a short warm-up.
func (w workload) reduced() workload {
	if w.spec.BatchLen > 500 {
		w.spec.BatchLen = 500
	}
	if w.itemsPerPE > 100 {
		w.itemsPerPE = 100
	}
	if w.bodies > 8 {
		w.bodies = 8
	}
	w.warmup = 20
	return w
}
