package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"reservoir"
	"reservoir/internal/metrics"
	"reservoir/internal/nodesvc"
	"reservoir/internal/store"
	"reservoir/internal/transport"
	"reservoir/internal/transport/faultnet"
	"reservoir/internal/transport/tcpnet"
)

// nodeConfig collects the node-mode flags.
type nodeConfig struct {
	peerID    int
	peers     []string
	addr      string
	k         int
	seed      uint64
	algo      string
	uniform   bool
	shards    int
	pipeline  bool
	formation time.Duration
	rejoin    time.Duration
	data      string
	fsync     string
	fault     faultConfig
	metrics   string // ops listen address for /healthz + /metrics ("" = off)
	log       *slog.Logger
}

// faultConfig collects the fault-injection flags (deterministic chaos
// without killing processes; see internal/transport/faultnet).
type faultConfig struct {
	seed                      uint64
	drop, dup, corrupt, delay float64
	delayNS                   time.Duration
}

func (f faultConfig) active() bool {
	return f.drop > 0 || f.dup > 0 || f.corrupt > 0 || f.delay > 0
}

// snapshotRetention is the per-node boundary history depth, the number
// of slot files in the node's store: enough for a restarted node to roll
// back to whichever round boundary the survivors agree on (the lockstep
// rounds keep the spread ≤ 1).
const snapshotRetention = 4

// signalGrace bounds how long a signalled node may keep unwinding before
// the process force-exits — under docker/k8s defaults (10s/30s before
// SIGKILL) the node must die on its own to log that it did.
const signalGrace = 8 * time.Second

// runNode turns this process into one PE of a multi-process cluster: dial
// the TCP mesh, then serve (rank 0) or follow (other ranks) until the
// cluster shuts down through the control API.
func runNode(cfg nodeConfig) {
	for i := range cfg.peers {
		cfg.peers[i] = strings.TrimSpace(cfg.peers[i])
		if cfg.peers[i] == "" {
			fmt.Fprintf(os.Stderr, "reservoir-serve: empty entry %d in -peers\n", i)
			os.Exit(2)
		}
	}
	if cfg.peerID < 0 || cfg.peerID >= len(cfg.peers) {
		fmt.Fprintf(os.Stderr, "reservoir-serve: -peer-id %d outside -peers list of %d\n", cfg.peerID, len(cfg.peers))
		os.Exit(2)
	}
	var algo reservoir.Algorithm
	if err := algo.UnmarshalText([]byte(cfg.algo)); err != nil {
		fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
		os.Exit(2)
	}
	// Sanity bound: gathers hold O(k) (distributed) or O(p·k) (gather
	// baseline) items in memory at the root; the transport fragments
	// arbitrarily large messages, so this protects memory, not framing.
	const maxNodeK = 1 << 21
	if cfg.k < 1 || cfg.k > maxNodeK {
		fmt.Fprintf(os.Stderr, "reservoir-serve: -k must be in [1, %d], got %d\n", maxNodeK, cfg.k)
		os.Exit(2)
	}

	reg := metrics.NewRegistry()
	var st *store.Store
	if cfg.data != "" {
		policy, err := store.ParseFsyncPolicy(cfg.fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
			os.Exit(2)
		}
		st, err = store.Open(cfg.data,
			store.WithFsync(policy),
			store.WithSnapshotRetention(snapshotRetention),
			store.WithMetrics(reg))
		if err != nil {
			fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
			os.Exit(1)
		}
		defer st.Close()
	}

	cfg.log.Info("forming cluster", "rank", cfg.peerID, "p", len(cfg.peers), "algo", cfg.algo)
	tr, err := tcpnet.Dial(tcpnet.Config{
		Rank:             cfg.peerID,
		Peers:            cfg.peers,
		FormationTimeout: cfg.formation,
		RejoinTimeout:    cfg.rejoin,
		Log:              cfg.log,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
		os.Exit(1)
	}
	defer tr.Close()

	registerTransportMetrics(reg, tr, cfg.peerID, len(cfg.peers))

	var conn transport.Conn = tr
	if cfg.fault.active() {
		cfg.log.Info("fault injection on", "rank", cfg.peerID,
			"seed", cfg.fault.seed, "drop", cfg.fault.drop, "dup", cfg.fault.dup,
			"corrupt", cfg.fault.corrupt, "delay", cfg.fault.delay)
		conn = faultnet.New(tr, faultnet.Config{
			Seed:      cfg.fault.seed,
			Drop:      cfg.fault.drop,
			Duplicate: cfg.fault.dup,
			Corrupt:   cfg.fault.corrupt,
			Delay:     cfg.fault.delay,
			DelayNS:   float64(cfg.fault.delayNS),
			WallDelay: true, // tcpnet is wall-clock; Work alone charges nothing
		})
	}

	srv, err := nodesvc.New(nodesvc.Options{
		Conn: conn,
		Config: reservoir.Config{
			K: cfg.k, Weighted: !cfg.uniform, Seed: cfg.seed,
			Shards: cfg.shards, Pipeline: cfg.pipeline,
		},
		Algorithm: algo,
		Addr:      cfg.addr,
		Store:     st,
		Log:       cfg.log,
		Metrics:   reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
		os.Exit(1)
	}

	if cfg.metrics != "" {
		// Every rank serves its own readiness and local metrics — rank 0's
		// control API duplicates both, but followers have no other HTTP
		// surface, and k8s probes each pod individually.
		ops := &http.Server{
			Addr:              cfg.metrics,
			Handler:           srv.OpsHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			cfg.log.Info("ops listening", "rank", cfg.peerID, "addr", cfg.metrics)
			if err := ops.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				cfg.log.Error("ops server failed", "rank", cfg.peerID, "err", err)
			}
		}()
		defer ops.Close()
	}

	// Graceful cluster shutdown flows through the root's control API (the
	// shutdown command must reach every node collectively). A signal
	// therefore tears the transport down hard; log the distinction so
	// operators reach for POST /v1/cluster/shutdown first.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		cfg.log.Info("signal received; closing transport (use POST /v1/cluster/shutdown on rank 0 for a clean stop)", "rank", cfg.peerID)
		tr.Close()
		// Ranks blocked in a collective unblock immediately, but an idle
		// rank 0 waits on its command queue, which a transport close does
		// not wake. Signals must terminate within a container runtime's
		// stop grace period, so force the issue after ours.
		time.Sleep(signalGrace)
		cfg.log.Error("run did not unwind after transport close; exiting", "rank", cfg.peerID)
		os.Exit(1)
	}()

	if err := srv.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "reservoir-serve:", err)
		os.Exit(1)
	}
	cfg.log.Info("bye", "rank", cfg.peerID)
}

// registerTransportMetrics exposes the live per-peer tcpnet counters as
// scrape-time Func instruments: zero hot-path cost beyond the atomics the
// transport already maintains. The self row is skipped (always zero).
func registerTransportMetrics(reg *metrics.Registry, tr *tcpnet.Transport, rank, p int) {
	peerLabel := []string{"peer"}
	for peer := 0; peer < p; peer++ {
		if peer == rank {
			continue
		}
		pe := peer
		lv := []string{strconv.Itoa(pe)}
		reg.CounterFunc("reservoir_transport_messages_total",
			"Data-plane messages sent to the peer.", peerLabel, lv,
			func() float64 { return float64(tr.PeerStats()[pe].Messages) })
		reg.CounterFunc("reservoir_transport_words_total",
			"Cost-model words sent to the peer.", peerLabel, lv,
			func() float64 { return float64(tr.PeerStats()[pe].Words) })
		reg.CounterFunc("reservoir_transport_bytes_total",
			"Framed wire bytes sent to the peer (coalesced frames included).", peerLabel, lv,
			func() float64 { return float64(tr.PeerStats()[pe].Bytes) })
		reg.CounterFunc("reservoir_transport_retries_total",
			"Redial attempts toward the peer after a connection loss.", peerLabel, lv,
			func() float64 { return float64(tr.PeerStats()[pe].Retries) })
	}
	reg.CounterFunc("reservoir_transport_flush_seconds_total",
		"Cumulative wall time spent in coalesced flushes.", nil, nil,
		func() float64 { return float64(tr.FlushNS()) / 1e9 })
}
