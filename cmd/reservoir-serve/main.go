// Command reservoir-serve hosts the sampling library as a long-running
// HTTP service: clients create sampler runs (distributed clusters,
// sequential samplers, or sliding-window samplers), stream weighted
// mini-batches into them, and query samples and stats. Ingest is
// asynchronous by default (202 + bounded per-run queues with 429
// backpressure; ?wait=true for synchronous rounds); reads are lock-free
// snapshot lookups. See docs/API.md for the full API reference
// and DESIGN.md §5-§6 for the architecture.
//
// Usage:
//
//	reservoir-serve -addr :8080 [-queue 64]
//	reservoir-serve -data /var/lib/reservoir [-fsync interval]
//
// With -peers, the server instead runs in node mode: it becomes one PE of
// a real multi-process sampling cluster. Every process is started with the
// same rank-indexed peer list and its own -peer-id; the processes form a
// TCP mesh and execute the paper's Distributed (or CentralizedGather)
// algorithm collectively across the network, with rank 0 exposing the
// cluster control API (POST /v1/cluster/rounds, GET /v1/cluster/sample,
// GET /v1/cluster/stats, POST /v1/cluster/shutdown — see docs/DEPLOY.md):
//
//	reservoir-serve -peer-id 0 -peers host0:9000,host1:9000 -k 256 -seed 1
//	reservoir-serve -peer-id 1 -peers host0:9000,host1:9000 -k 256 -seed 1
//
// Node mode is chaos-hardened on demand: -rejoin-timeout plus a per-node
// -data store make the cluster survive kill -9 + restart of any node
// (rank 0 included) — each node checkpoints every round boundary, the
// survivors redial, and the cluster resyncs to the last common boundary
// and re-executes only the missing work, reproducing the byte-identical
// sample of an uninterrupted run. The -fault-* flags instead inject a
// deterministic seeded schedule of network faults (drops, duplicates,
// corrupt frames, delays; internal/transport/faultnet) that never
// changes the sample, only retries and latency. See docs/DEPLOY.md
// "Failure model" and "Chaos testing".
//
// With -data, every run is durable: its config is written at creation,
// and after each ingest round the run's whole sampler state at that round
// boundary overwrites one slot of a small per-run ring before the round is
// acknowledged. After a crash or restart with the same -data directory,
// all runs recover from their newest boundary — config, round counters,
// and reservoir contents — and continue the identical sampling stream
// (the PRNG state is part of the boundary).
//
// The server drains gracefully on SIGINT/SIGTERM: metric streams are
// closed, ingest workers stop at the next round boundary, in-flight
// requests complete, then the listener shuts down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -pprof: profiling endpoints on their own listener
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reservoir/internal/metrics"
	"reservoir/internal/service"
	"reservoir/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (service and node mode; empty = off)")
	quiet := flag.Bool("quiet", false, "disable run lifecycle logging")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	metricsAddr := flag.String("metrics", "", "node mode: serve GET /healthz and GET /metrics on this address on every rank (empty = off; service mode exposes /metrics on -addr)")
	healthURL := flag.String("healthcheck", "", "probe the given URL and exit 0 on HTTP 2xx, 1 otherwise (container healthchecks; no server is started)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown deadline")
	queue := flag.Int("queue", 0, "default per-run ingest queue depth (0 = built-in default)")
	data := flag.String("data", "", "persistence directory (empty = in-memory only)")
	fsync := flag.String("fsync", "interval", "boundary fsync policy with -data: always or interval (both fsync every round boundary), or off")
	peerID := flag.Int("peer-id", -1, "node mode: this process's rank in the -peers list")
	peers := flag.String("peers", "", "node mode: comma-separated rank-indexed peer list (host:port,...)")
	nodeK := flag.Int("k", 256, "node mode: sample size (identical on all nodes)")
	nodeSeed := flag.Uint64("seed", 1, "node mode: run seed (identical on all nodes)")
	nodeAlgo := flag.String("algo", "ours", "node mode: sampling algorithm, ours or gather (identical on all nodes)")
	nodeUniform := flag.Bool("uniform", false, "node mode: uniform (unweighted) sampling (identical on all nodes)")
	nodeShards := flag.Int("shards", 0, "node mode: fixed logical scan-shard count, part of the sampling stream's identity (identical on all nodes; 0 means 1)")
	nodePipeline := flag.Bool("pipeline", false, "node mode: overlap each round's scan with the previous round's selection collectives (identical on all nodes)")
	formation := flag.Duration("formation-timeout", 60*time.Second, "node mode: cluster formation deadline")
	rejoin := flag.Duration("rejoin-timeout", 0, "node mode: tolerate node crash-restarts within this window (0 = strict reliable-PE semantics)")
	faultSeed := flag.Uint64("fault-seed", 1, "node mode: deterministic fault-injection schedule seed")
	faultDrop := flag.Float64("fault-drop", 0, "node mode: per-message drop (retransmit) probability [0,1)")
	faultDup := flag.Float64("fault-dup", 0, "node mode: per-message duplicate probability [0,1)")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "node mode: per-message corrupt-copy probability [0,1)")
	faultDelay := flag.Float64("fault-delay", 0, "node mode: per-message delay probability [0,1)")
	faultDelayNS := flag.Duration("fault-delay-ns", time.Millisecond, "node mode: latency charged per injected delay")
	flag.Parse()

	if *healthURL != "" {
		// Probe mode for distroless containers (no shell, no curl): the
		// image's own binary doubles as the compose/k8s health command.
		os.Exit(probe(*healthURL))
	}

	logger := buildLogger(*logFormat, *quiet)

	// Kubernetes-friendly fallbacks: a StatefulSet derives each pod's rank
	// from its pod index and ships it via the environment, where flags in
	// a shared pod template cannot differ per replica.
	if *peers == "" {
		*peers = os.Getenv("RESERVOIR_PEERS")
	}
	if *peerID < 0 {
		if v := os.Getenv("RESERVOIR_PEER_ID"); v != "" {
			id, err := strconv.Atoi(v)
			if err != nil {
				fmt.Fprintf(os.Stderr, "reservoir-serve: RESERVOIR_PEER_ID=%q: %v\n", v, err)
				os.Exit(2)
			}
			*peerID = id
		}
	}

	if *pprofAddr != "" {
		// net/http/pprof registers its handlers on http.DefaultServeMux;
		// serve that mux on its own listener so profiling never shares a
		// port (or an auth story) with the service or control API.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server failed", "err", err)
			}
		}()
	}

	if *peers != "" {
		fault := faultConfig{
			seed: *faultSeed, drop: *faultDrop, dup: *faultDup,
			corrupt: *faultCorrupt, delay: *faultDelay, delayNS: *faultDelayNS,
		}
		if fault.active() && *rejoin > 0 {
			// faultnet wraps the transport and hides the recovery
			// control surface; combining them would silently disable
			// crash-restart tolerance. Chaos runs use one or the other.
			fmt.Fprintln(os.Stderr, "reservoir-serve: -fault-* schedules and -rejoin-timeout are mutually exclusive")
			os.Exit(2)
		}
		if *data != "" && *rejoin <= 0 {
			// Persistence without the resync protocol could restore
			// nodes to checkpoints one round apart and silently diverge
			// the sample on the next ingest.
			fmt.Fprintln(os.Stderr, "reservoir-serve: node-mode -data requires -rejoin-timeout (recovery needs the resync protocol)")
			os.Exit(2)
		}
		runNode(nodeConfig{
			peerID:    *peerID,
			peers:     strings.Split(*peers, ","),
			addr:      *addr,
			k:         *nodeK,
			seed:      *nodeSeed,
			algo:      *nodeAlgo,
			uniform:   *nodeUniform,
			shards:    *nodeShards,
			pipeline:  *nodePipeline,
			formation: *formation,
			rejoin:    *rejoin,
			data:      *data,
			fsync:     *fsync,
			fault:     fault,
			metrics:   *metricsAddr,
			log:       logger,
		})
		return
	}
	if *peerID >= 0 {
		fmt.Fprintln(os.Stderr, "reservoir-serve: -peer-id requires -peers")
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	opts := []service.Option{service.WithLogger(logger), service.WithMetrics(reg)}
	if *queue > 0 {
		opts = append(opts, service.WithQueueDepth(*queue))
	}

	var st *store.Store
	if *data != "" {
		policy, err := store.ParseFsyncPolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
			os.Exit(2)
		}
		st, err = store.Open(*data, store.WithFsync(policy), store.WithMetrics(reg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
			os.Exit(1)
		}
		opts = append(opts, service.WithStore(st))
	}

	svc := service.New(opts...)
	if st != nil {
		if err := svc.Recover(); err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
			os.Exit(1)
		}
		logger.Info("store open", "dir", *data, "fsync", *fsync, "recovered_runs", svc.RunCount())
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("listening", "addr", *addr)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", drain.String())
	svc.Close() // stop workers at a round boundary
	if st != nil {
		if err := st.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve: store close:", err)
		}
	}
	sdCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "reservoir-serve: shutdown:", err)
		os.Exit(1)
	}
	logger.Info("bye")
}

// buildLogger assembles the process logger from the -log-format and
// -quiet flags. Everything below (service, nodesvc, transport) derives
// component-scoped children from it.
func buildLogger(format string, quiet bool) *slog.Logger {
	if quiet {
		return slog.New(slog.DiscardHandler)
	}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fmt.Fprintf(os.Stderr, "reservoir-serve: -log-format must be text or json, got %q\n", format)
		os.Exit(2)
		return nil
	}
}

// probe implements -healthcheck: one GET, exit status only.
func probe(url string) int {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reservoir-serve: healthcheck:", err)
		return 1
	}
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		fmt.Fprintf(os.Stderr, "reservoir-serve: healthcheck: %s returned %s\n", url, resp.Status)
		return 1
	}
	return 0
}
