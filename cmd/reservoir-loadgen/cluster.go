package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"reservoir/internal/bench"
	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
)

// clusterClient issues control-API requests, optionally surviving chaos:
// with -chaos, connection errors and 5xx responses (a node was killed,
// the cluster is resyncing, rank 0 itself is restarting) are retried
// with backoff until -chaos-timeout passes without any success. A round
// acknowledged by the cluster but whose response was lost to a rank-0
// kill may execute once more on retry; that keeps the dump verifiable —
// reservoir-verify -match replays exactly the executed round count from
// the final stats.
type clusterClient struct {
	hc    *http.Client
	base  string
	chaos bool
	wait  time.Duration
}

// do runs one request until it succeeds (2xx) or retries are exhausted.
func (c *clusterClient) do(what string, req func() (*http.Response, error)) []byte {
	deadline := time.Now().Add(c.wait)
	for {
		resp, err := req()
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode/100 == 2 {
				return data
			}
			err = fmt.Errorf("%s: %s", resp.Status, data)
		}
		if !c.chaos {
			fatalf("%s: %v", what, err)
		}
		if time.Now().After(deadline) {
			fatalf("%s: still failing after %s of chaos retries: %v", what, c.wait, err)
		}
		fmt.Printf("reservoir-loadgen: %s failed (%v); retrying\n", what, err)
		time.Sleep(500 * time.Millisecond)
	}
}

// stats fetches the cluster stats snapshot. With refresh, the root runs a
// collective stats command first: it drains any selection still pending
// from a defer_stats round and re-aggregates counters across all PEs, so
// the result reflects every posted round (the cached snapshot can lag
// when rounds defer their stats publication).
func (c *clusterClient) stats(refresh bool) nodesvc.Stats {
	url := c.base + "/v1/cluster/stats"
	if refresh {
		url += "?refresh=1"
	}
	data := c.do("cluster stats", func() (*http.Response, error) {
		return c.hc.Get(url)
	})
	var st nodesvc.Stats
	if err := json.Unmarshal(data, &st); err != nil {
		fatalf("decoding cluster stats %q: %v", data, err)
	}
	return st
}

// runClusterBench drives the cluster through its rank-0 control API: one
// round per request, wall clock latency per round, and the cluster-wide
// traffic deltas from the stats endpoint. With -sample-out it then
// fetches the merged sample and writes a dump that reservoir-verify
// -match can replay on the simulator — the end-to-end determinism check
// of the multi-process path.
func runClusterBench(cfg config) {
	client := &clusterClient{
		hc:    &http.Client{Timeout: 5 * time.Minute},
		base:  cfg.cluster,
		chaos: cfg.chaos,
		wait:  cfg.chaosWait,
	}
	base := cfg.cluster

	initial := client.stats(false)
	fmt.Printf("reservoir-loadgen: cluster at %s: p=%d k=%d algo=%s seed=%d rounds=%d\n",
		base, initial.P, initial.K, initial.Algorithm, initial.Seed, initial.Rounds)
	if cfg.sampleOut != "" {
		if len(cfg.batch) != 1 {
			fatalf("-sample-out needs a single -batch value (the dump replays one uniform stream), got %d", len(cfg.batch))
		}
		if initial.Rounds != 0 {
			fatalf("-sample-out needs a fresh cluster (rounds=0), this one already ran %d rounds", initial.Rounds)
		}
	}

	rep := bench.NewReport("reservoir-loadgen", cfg.name)
	rep.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	rep.Params = map[string]any{
		"mode": "cluster", "p": initial.P, "k": initial.K,
		"algo": initial.Algorithm.String(), "seed": initial.Seed,
		"uniform": initial.Uniform, "rounds_per_point": cfg.rounds,
		"shards": initial.Shards, "pipeline": initial.Pipeline,
	}
	if cfg.scen != nil {
		rep.Params["scenario"] = cfg.scen.Name
	}

	var lastSpec service.SyntheticSpec
	for _, batch := range cfg.batch {
		before := client.stats(true)
		// Scenario streams derive from (seed, pe, round) like the
		// primitive sources, so the dump still replays byte-identically
		// under reservoir-verify -match.
		spec := service.SyntheticSpec{BatchLen: batch, Rounds: 1, Scenario: cfg.scen}
		lastSpec = spec
		// defer_stats keeps the pipeline full across HTTP requests: each
		// round's selection collective stays in flight while the next
		// request's broadcast and scan proceed, instead of being drained
		// for a per-round stats AllReduce nobody reads. The refreshed
		// stats calls around the loop recover the counters collectively.
		body, _ := json.Marshal(map[string]any{"synthetic": spec, "defer_stats": true})

		durs := make([]time.Duration, 0, cfg.rounds)
		start := time.Now()
		for r := 0; r < cfg.rounds; r++ {
			t0 := time.Now()
			client.do(fmt.Sprintf("round %d", r), func() (*http.Response, error) {
				return client.hc.Post(base+"/v1/cluster/rounds", "application/json", bytes.NewReader(body))
			})
			durs = append(durs, time.Since(t0))
			if os.Getenv("LOADGEN_TRACE") != "" {
				fmt.Printf("round %3d  %8.2fms\n", r, time.Since(t0).Seconds()*1e3)
			}
			if cfg.interval > 0 {
				time.Sleep(cfg.interval)
			}
		}
		elapsed := time.Since(start)
		after := client.stats(true)

		rounds := after.Rounds - before.Rounds
		items := after.ItemsProcessed - before.ItemsProcessed
		m := map[string]float64{
			"throughput_items_per_s": float64(items) / elapsed.Seconds(),
			"rounds_per_s":           float64(rounds) / elapsed.Seconds(),
			"wall_s":                 elapsed.Seconds(),
			"requests":               float64(len(durs)),
			"messages":               float64(after.Network.Messages - before.Network.Messages),
			"words":                  float64(after.Network.Words - before.Network.Words),
			"net_bytes":              float64(after.Network.Bytes - before.Network.Bytes),
			"messages_per_round":     perRoundF(after.Network.Messages-before.Network.Messages, rounds),
			"words_per_round":        perRoundF(after.Network.Words-before.Network.Words, rounds),
			"selection_rounds":       float64(after.SelectionRounds - before.SelectionRounds),
		}
		// Per-phase breakdown (summed across all PEs; zero on pre-sharded
		// clusters that don't track phases). round_overlap_pct is the
		// fraction of round wall time where the scan ran concurrently with
		// the previous round's selection collectives — the direct measure
		// of how much pipelining is actually hiding.
		scanNS := after.ScanNS - before.ScanNS
		roundNS := after.RoundNS - before.RoundNS
		if items > 0 {
			m["scan_ns_per_item"] = float64(scanNS) / float64(items)
		}
		if roundNS > 0 {
			m["round_overlap_pct"] = 100 * float64(after.OverlapNS-before.OverlapNS) / float64(roundNS)
		}
		m["scan_us_per_round"] = perRoundF(scanNS, rounds) / 1e3
		m["coll_us_per_round"] = perRoundF(after.CollNS-before.CollNS, rounds) / 1e3
		m["flush_us_per_round"] = perRoundF(after.FlushNS-before.FlushNS, rounds) / 1e3
		bench.Summarize(durs).Metrics("latency", m)
		name := fmt.Sprintf("batch=%d", batch)
		rep.Add(name, map[string]any{"batch": batch, "rounds": cfg.rounds}, m)
		fmt.Printf("%-20s %12.0f items/s  p50 %7.2fms  p95 %7.2fms  %8.0f msgs (%d rounds)\n",
			name, m["throughput_items_per_s"], m["latency_p50_ms"], m["latency_p95_ms"],
			m["messages"], rounds)
	}

	if cfg.sampleOut != "" {
		writeSampleDump(client, base, cfg.sampleOut, lastSpec)
	}
	if err := rep.WriteFile(cfg.out); err != nil {
		fatalf("writing %s: %v", cfg.out, err)
	}
	fmt.Printf("wrote %d results to %s\n", len(rep.Results), cfg.out)
}

// writeSampleDump captures the cluster's merged sample plus everything a
// replay needs into one self-describing file.
func writeSampleDump(client *clusterClient, base, path string, spec service.SyntheticSpec) {
	st := client.stats(true) // refresh: the final round may have deferred its stats
	data := client.do("fetching sample", func() (*http.Response, error) {
		return client.hc.Get(base + "/v1/cluster/sample")
	})
	var sr nodesvc.SampleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		fatalf("decoding sample: %v", err)
	}
	dump := nodesvc.SampleDump{
		P:         st.P,
		K:         st.K,
		Algorithm: st.Algorithm,
		Uniform:   st.Uniform,
		Shards:    st.Shards,
		Pipeline:  st.Pipeline,
		Seed:      st.Seed,
		Rounds:    st.Rounds,
		Synthetic: spec,
		Sample:    sr.Items,
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		fatalf("encoding sample dump: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("writing %s: %v", path, err)
	}
	fmt.Printf("wrote %d-item sample dump to %s (verify with: reservoir-verify -match %s)\n",
		len(sr.Items), path, path)
}

func perRoundF(v int64, rounds int) float64 {
	if rounds == 0 {
		return 0
	}
	return float64(v) / float64(rounds)
}
