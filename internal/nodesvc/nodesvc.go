// Package nodesvc runs one node of a real multi-process sampling cluster:
// the service layer behind reservoir-serve's node mode (-peer-id/-peers).
//
// Every process owns one reservoir.Node over a shared transport (tcpnet in
// production). The cluster drives itself through its own collectives: rank
// 0 exposes a small HTTP control API, and each accepted request becomes a
// command broadcast to all nodes through the same Broadcast primitive the
// sampler uses — so the control plane needs no second network and is in
// lockstep with the sampling collectives by construction. Non-root nodes
// sit in a loop receiving commands; the paper's SPMD model is preserved
// end to end.
//
// Control API (rank 0):
//
//	GET  /healthz                  liveness + cluster shape
//	POST /v1/cluster/rounds       {"synthetic": {...}} — run mini-batch rounds
//	GET  /v1/cluster/sample       gather and return the merged global sample
//	GET  /v1/cluster/stats        last published cluster stats (no collective)
//	POST /v1/cluster/shutdown     stop all nodes of the cluster
//
// The synthetic spec is the same shape as the single-process service's
// (service.SyntheticSpec) and builds the identical (seed, pe, round)-keyed
// workload stream, which is what lets reservoir-verify -match replay a
// cluster run on the simulator and demand a byte-identical sample.
package nodesvc

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"reservoir"
	"reservoir/internal/metrics"
	"reservoir/internal/service"
	"reservoir/internal/store"
	"reservoir/internal/transport"
	"reservoir/internal/workload/scenario"
)

// Command opcodes broadcast from rank 0. opStats is internal: it runs
// the stats collectives alone, used when a resync rolled a command's
// remaining work to zero but the caller still needs a fresh result.
const (
	opRounds   = "rounds"
	opSample   = "sample"
	opShutdown = "shutdown"
	opStats    = "stats"
)

// command is the control message distributed through the cluster's own
// Broadcast collective. Fields are exported for the wire transport.
// DeferStats skips the per-command stats reduction (opRounds only):
// pipelined benchmark drivers post one round per request, and a stats
// collective after each would both serialize the rounds and leave no
// selection in flight for the next scan to overlap. Deferred stats are
// recovered collectively later via opStats (GET /v1/cluster/stats?refresh=1).
type command struct {
	Op         string
	Spec       service.SyntheticSpec
	DeferStats bool
}

// commandWords is the nominal cost-model size of a command broadcast.
const commandWords = 8

// The command broadcast's wire codec. The spec travels as its JSON
// encoding: it is a config-shaped struct with a nested scenario pointer,
// already JSON-tagged for the HTTP API, and a few hundred
// bytes at most.
func init() {
	transport.RegisterMarshaler(transport.WireIDCommand,
		func(buf []byte, v command) []byte {
			spec, err := json.Marshal(v.Spec)
			if err != nil {
				// SyntheticSpec is plain data (numbers, strings, a
				// data-only scenario spec); its JSON encoding cannot fail.
				panic(fmt.Sprintf("nodesvc: encoding command spec: %v", err))
			}
			buf = transport.AppendBytes(buf, []byte(v.Op))
			buf = transport.AppendBytes(buf, spec)
			return transport.AppendBool(buf, v.DeferStats)
		},
		func(d *transport.Dec) (command, error) {
			var c command
			c.Op = string(d.Bytes())
			spec := d.Bytes()
			c.DeferStats = d.Bool()
			if err := d.Err(); err != nil {
				return command{}, err
			}
			if err := json.Unmarshal(spec, &c.Spec); err != nil {
				return command{}, fmt.Errorf("command spec: %w", err)
			}
			return c, nil
		})
}

// Per-request bounds (the node API is driven by benchmarks and operators,
// not untrusted tenants, but a typo should not wedge the cluster).
const (
	maxBatchLen = 1 << 24
	maxRounds   = 1 << 16
)

// Options configures one node of the cluster.
type Options struct {
	// Conn is this node's transport endpoint (required).
	Conn transport.Conn
	// Config is the sampler configuration; must be identical on every
	// node of the cluster.
	Config reservoir.Config
	// Algorithm selects Distributed (default) or CentralizedGather; must
	// be identical on every node.
	Algorithm reservoir.Algorithm
	// Addr is the HTTP control listen address, used by rank 0 only
	// (default ":8080"). Ignored when Listener is set.
	Addr string
	// Listener optionally provides a pre-bound control listener for rank
	// 0 (tests use port-0 listeners).
	Listener net.Listener
	// Store enables crash-restart persistence: this node's per-round
	// boundaries live in its ring of slot files, one in-place write and
	// (unless the policy is FsyncOff) one fsync per round (each node of
	// the cluster needs its *own* store directory). Open it with a
	// snapshot retention of at least 4 (store.WithSnapshotRetention),
	// which sizes the ring, so a restarted node can roll back to the
	// survivors' boundary.
	Store *store.Store
	// Log receives lifecycle messages (default: silent). The server adds
	// component and rank attributes.
	Log *slog.Logger
	// Metrics optionally shares a registry with the caller (so transport
	// instruments registered outside nodesvc appear on the same /metrics).
	// Nil gets a private registry.
	Metrics *metrics.Registry
}

// Stats is the GET /v1/cluster/stats (and POST rounds) response: the
// cluster-wide state as of the last completed command.
type Stats struct {
	Mode            string              `json:"mode"`
	P               int                 `json:"p"`
	Algorithm       reservoir.Algorithm `json:"algorithm"`
	K               int                 `json:"k"`
	Seed            uint64              `json:"seed"`
	Uniform         bool                `json:"uniform,omitempty"`
	Shards          int                 `json:"shards,omitempty"`
	Pipeline        bool                `json:"pipeline,omitempty"`
	Rounds          int                 `json:"rounds"`
	SampleSize      int                 `json:"sample_size"`
	Threshold       float64             `json:"threshold"`
	HaveThreshold   bool                `json:"have_threshold"`
	ItemsProcessed  int64               `json:"items_processed"`
	Inserted        int64               `json:"inserted"`
	Selections      int64               `json:"selections"`
	SelectionRounds int64               `json:"selection_rounds"`
	WallNS          float64             `json:"wall_ns"`
	Network         NetworkStats        `json:"network"`
	// Per-phase round breakdown, summed across all nodes (wall-clock
	// nanoseconds; zero unless the sharded scan is active). OverlapNS is
	// the wall time the pipelined driver saved by running a round's scan
	// concurrently with the previous round's selection collectives.
	ScanNS    int64 `json:"scan_ns,omitempty"`
	CollNS    int64 `json:"coll_ns,omitempty"`
	OverlapNS int64 `json:"overlap_ns,omitempty"`
	RoundNS   int64 `json:"round_ns,omitempty"`
	FlushNS   int64 `json:"flush_ns,omitempty"`
}

// MarshalJSON spells a non-finite threshold as a string
// (service.MarshalFloats).
func (s Stats) MarshalJSON() ([]byte, error) { return service.MarshalFloats(&s) }

// UnmarshalJSON reads what MarshalJSON writes.
func (s *Stats) UnmarshalJSON(b []byte) error { return service.UnmarshalFloats(b, s) }

// NetworkStats is the cluster-wide traffic summary (all nodes' outgoing
// counters, summed by one reduction to rank 0 after each command). The wire
// shape is shared with the single-process service's stats.
type NetworkStats = service.NetworkStats

// SampleResponse is the GET /v1/cluster/sample response.
type SampleResponse struct {
	Size  int                `json:"size"`
	Items []service.WireItem `json:"items"`
}

// SampleDump is the verifiable record of a cluster run: configuration,
// ingested synthetic workload, and the merged sample — everything
// reservoir-verify -match needs to replay the run on the simulator and
// compare byte-for-byte. reservoir-loadgen writes one with -sample-out.
type SampleDump struct {
	P         int                   `json:"p"`
	K         int                   `json:"k"`
	Algorithm reservoir.Algorithm   `json:"algorithm"`
	Uniform   bool                  `json:"uniform,omitempty"`
	Shards    int                   `json:"shards,omitempty"`
	Pipeline  bool                  `json:"pipeline,omitempty"`
	Seed      uint64                `json:"seed"`
	Rounds    int                   `json:"rounds"`
	Synthetic service.SyntheticSpec `json:"synthetic"`
	Sample    []service.WireItem    `json:"sample"`
}

// pending is one queued control command awaiting its collective turn.
type pending struct {
	cmd   command
	reply chan result
}

type result struct {
	stats Stats
	items []service.WireItem
	err   error
}

// Server is one node's service instance.
type Server struct {
	opts Options
	node *reservoir.Node
	// runCfg carries the fields SyntheticSpec.BuildSource consults, so
	// node-mode streams match single-process service streams exactly.
	runCfg service.RunConfig
	log    *slog.Logger

	// srcMu guards a single-entry cache of the last compiled synthetic
	// source: consecutive commands almost always carry the same spec, and
	// rank 0 compiles each spec twice (validation, then execution), while
	// a Zipf scenario's compile alone builds a 4096-entry CDF.
	srcMu  sync.Mutex
	srcKey sourceKey
	src    reservoir.Source

	// formed flips to true once the node can serve collectives: at startup
	// for a fresh node, after the initial resync for a rejoining one, and
	// it dips back to false while a resync is in flight. Readiness probes
	// (healthz) key off it so traffic never lands on a half-formed cluster.
	formed atomic.Bool

	// Prometheus instruments (nil-receiver-safe histograms/counters; the
	// Func variants read live state at scrape time).
	reg           *metrics.Registry
	mRoundSeconds *metrics.Histogram
	mOverlapPct   *metrics.Histogram
	mResyncs      *metrics.Counter

	// Fault tolerance and persistence (see resync.go / persist.go).
	// ft is non-nil when the transport runs with recoverable faults;
	// ring holds the restorable round boundaries, slots their persisted
	// copies; rejoining marks a node that recovered persisted state and
	// must resync before serving.
	ft        ftConn
	st        *store.Store
	slots     *store.Slots
	ring      []boundary
	rejoining bool
	attempt   uint64 // rank 0's resync attempt counter

	// Root-only control state. done closes when the collective loop
	// exits, unblocking submitters that raced with shutdown.
	cmds chan *pending
	done chan struct{}

	mu       sync.Mutex
	lastStat Stats // rank 0 only: the last published cluster stats
	shutdown bool

	// statRound is this node's round as of its last stats publication,
	// which /healthz reports on every rank.
	statRound atomic.Int64
}

// New creates this node's server over an established transport.
func New(opts Options) (*Server, error) {
	logger := opts.Log
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	node, err := reservoir.NewNode(opts.Conn, opts.Config, reservoir.WithAlgorithm(opts.Algorithm))
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		opts:   opts,
		node:   node,
		runCfg: service.RunConfig{Seed: opts.Config.Seed, Uniform: !opts.Config.Weighted},
		log:    logger.With("component", "nodesvc", "rank", node.Rank()),
		reg:    reg,
		st:     opts.Store,
		cmds:   make(chan *pending),
		done:   make(chan struct{}),
	}
	if fc, ok := opts.Conn.(ftConn); ok && fc.FaultTolerant() {
		s.ft = fc
	}
	s.registerMetrics()
	if s.st != nil {
		if s.ft == nil {
			// Without the resync protocol there is no round-agreement
			// check: nodes cold-restarted from checkpoints taken one
			// round apart would consume diverging stream slices and
			// produce a silently wrong sample.
			return nil, fmt.Errorf("nodesvc: a store requires a fault-tolerant transport (rejoin timeout); refusing persistence that could not be recovered consistently")
		}
		if err := s.initPersistence(); err != nil {
			return nil, err
		}
	}
	if !s.rejoining {
		// Record the round-0 boundary so the very first round is
		// rollback-able (and, with a store, restartable).
		if err := s.captureBoundary(); err != nil {
			return nil, err
		}
		// A fresh node's mesh is already up (transport dialing completes
		// before New); only a rejoining node must resync before serving.
		s.formed.Store(true)
	}
	s.lastStat = s.snapshotLocked(reservoir.NetworkStats{}, reservoir.Counters{}, reservoir.PhaseStats{})
	s.statRound.Store(int64(s.lastStat.Rounds))
	return s, nil
}

// Formed reports whether this node is ready to take part in collectives:
// false on a rejoining node until its initial resync commits, and during
// any later resync. Readiness probes key off it.
func (s *Server) Formed() bool { return s.formed.Load() }

// Metrics exposes the node's registry so callers (cmd wiring, tests) can
// register additional instruments — e.g. per-peer transport counters —
// on the same /metrics page.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// registerMetrics installs the node-level instruments. Everything cheap
// to read is a Func variant sampled at scrape time; only the histograms
// and the resync counter add writes to the serving path.
func (s *Server) registerMetrics() {
	rank := fmt.Sprintf("%d", s.node.Rank())
	rankLabel := []string{"rank"}
	s.mRoundSeconds = s.reg.NewHistogram("reservoir_node_round_duration_seconds",
		"Wall time per completed cluster round on this node (boundary capture included).",
		metrics.DefBuckets, rankLabel, rank)
	s.mOverlapPct = s.reg.NewHistogram("reservoir_node_round_overlap_pct",
		"Percent of a round's wall time the pipelined scan overlapped with the previous round's selection collectives.",
		metrics.PctBuckets, rankLabel, rank)
	s.mResyncs = s.reg.NewCounter("reservoir_node_resyncs_total",
		"Completed fault-recovery resyncs this node took part in.", rankLabel, rank)
	s.reg.GaugeFunc("reservoir_node_rounds", "Rounds this node has completed.",
		rankLabel, []string{rank}, func() float64 { return float64(s.node.Round()) })
	s.reg.GaugeFunc("reservoir_cluster_formed", "1 once the node is resynced and serving, 0 while forming.",
		rankLabel, []string{rank}, func() float64 {
			if s.formed.Load() {
				return 1
			}
			return 0
		})
	if s.ft != nil {
		s.reg.GaugeFunc("reservoir_node_epoch", "Transport epoch (bumped by every committed resync).",
			rankLabel, []string{rank}, func() float64 { return float64(s.ft.Epoch()) })
	}
	if s.node.Rank() == 0 {
		// Cluster-wide aggregates, published by the stats reduction to
		// rank 0 after each command (lastStats is the cached copy — scraping
		// never runs a collective).
		s.reg.GaugeFunc("reservoir_cluster_rounds", "Cluster rounds as of the last completed command.",
			nil, nil, func() float64 { return float64(s.lastStats().Rounds) })
		s.reg.GaugeFunc("reservoir_cluster_sample_size", "Current global sample size.",
			nil, nil, func() float64 { return float64(s.lastStats().SampleSize) })
		s.reg.CounterFunc("reservoir_cluster_items_total", "Items processed cluster-wide.",
			nil, nil, func() float64 { return float64(s.lastStats().ItemsProcessed) })
		s.reg.CounterFunc("reservoir_cluster_network_messages_total", "Transport messages sent cluster-wide (reduced to rank 0).",
			nil, nil, func() float64 { return float64(s.lastStats().Network.Messages) })
		s.reg.CounterFunc("reservoir_cluster_network_words_total", "Cost-model words sent cluster-wide (reduced to rank 0).",
			nil, nil, func() float64 { return float64(s.lastStats().Network.Words) })
		s.reg.CounterFunc("reservoir_cluster_network_bytes_total", "Wire bytes sent cluster-wide (reduced to rank 0).",
			nil, nil, func() float64 { return float64(s.lastStats().Network.Bytes) })
	}
}

// Run drives the node until the cluster shuts down. On rank 0 it serves
// the HTTP control API and feeds accepted commands into the collective
// loop; on other ranks it executes broadcast commands. It returns nil
// after an orderly cluster shutdown.
func (s *Server) Run() error {
	defer func() {
		if s.slots != nil {
			s.slots.Close()
		}
	}()
	if s.node.Rank() == 0 {
		return s.runRoot()
	}
	return s.runFollower()
}

func (s *Server) runFollower() (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Only transport-originated panics (peer loss, poisoned
			// mailbox, wire corruption) become an orderly error return;
			// anything else is a real bug and must crash loudly.
			if !transport.IsTransportPanic(r) {
				panic(r)
			}
			err = fmt.Errorf("nodesvc: rank %d: %v", s.node.Rank(), r)
		}
	}()
	s.log.Info("following", "p", s.node.P())
	if s.ft != nil && s.rejoining {
		if err := s.followResync(true); err != nil {
			return err
		}
	}
	for {
		cmd, res, fault := s.tryFollowOnce()
		if fault {
			if err := s.followResync(false); err != nil {
				return err
			}
			continue
		}
		if res.err != nil {
			return fmt.Errorf("nodesvc: rank %d executing %q: %w", s.node.Rank(), cmd.Op, res.err)
		}
		if cmd.Op == opShutdown {
			s.log.Info("shutting down")
			return nil
		}
	}
}

// tryFollowOnce receives and executes one broadcast command, converting
// recoverable transport faults (a peer died, a resync began) into a
// fault=true return instead of a panic. Non-fault panics propagate.
func (s *Server) tryFollowOnce() (cmd command, res result, fault bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.AsFault(r); ok && s.ft != nil {
				fault = true
				return
			}
			panic(r)
		}
	}()
	cmd = reservoir.BroadcastValue(s.node, 0, command{}, commandWords)
	res = s.execute(cmd)
	return
}

func (s *Server) runRoot() error {
	ln := s.opts.Listener
	if ln == nil {
		addr := s.opts.Addr
		if addr == "" {
			addr = ":8080"
		}
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return fmt.Errorf("nodesvc: control listen: %w", err)
		}
	}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	httpErr := make(chan error, 1)
	serveFailed := make(chan error, 1)
	go func() {
		err := hs.Serve(ln)
		httpErr <- err
		if err != nil && err != http.ErrServerClosed {
			serveFailed <- err // wake rootLoop: no frontend can submit commands anymore
		}
	}()
	s.log.Info("leading", "p", s.node.P(), "addr", ln.Addr().String())

	runErr := s.rootLoop(serveFailed)
	close(s.done)
	// Let in-flight handlers (including the shutdown response) flush.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	<-httpErr
	s.log.Info("shut down")
	return runErr
}

// rootLoop drains the command queue through the cluster's collectives.
// On a strict transport, a failure mid-collective (a dead peer poisons
// the mailbox with a panic) is recovered into an orderly error so rank 0
// still runs its HTTP shutdown and submitter-unblocking cleanup; on a
// fault-tolerant transport, dispatch absorbs the fault, coordinates a
// resync, and re-executes the command from the restored boundary. Fault
// signals arriving while no command is in flight (a follower died or
// rejoined between requests) are handled through the transport's notify
// channel. A dead control server (serveFailed) shuts the cluster down
// instead of leaving the followers blocked on a Broadcast that can never
// be requested again.
func (s *Server) rootLoop(serveFailed <-chan error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			// Same triage as runFollower: strict-mode peer death reaches
			// this boundary as a typed transport panic and becomes an
			// orderly shutdown; a bug in the sampler or service must not.
			if !transport.IsTransportPanic(r) {
				panic(r)
			}
			err = fmt.Errorf("nodesvc: rank 0: %v", r)
		}
	}()
	var notify <-chan struct{}
	if s.ft != nil {
		notify = s.ft.CtrlNotify()
		if s.rejoining {
			// This rank 0 crash-restarted: re-sync the cluster to a
			// common boundary before accepting commands.
			if err := s.coordinateResync(); err != nil {
				return err
			}
		}
	}
	for {
		select {
		case p, ok := <-s.cmds:
			if !ok {
				return nil
			}
			res := s.dispatch(p.cmd)
			p.reply <- res
			if p.cmd.Op == opShutdown {
				return nil
			}
			if res.err != nil {
				return res.err
			}
		case <-notify:
			if !s.ft.CtrlPending() && len(s.ft.DownPeers()) == 0 {
				continue // stale pulse of an already-handled fault
			}
			if err := s.coordinateResync(); err != nil {
				return err
			}
		case e := <-serveFailed:
			s.dispatch(command{Op: opShutdown})
			return fmt.Errorf("nodesvc: control server failed: %w", e)
		}
	}
}

// maxCmdRetries bounds how many resync-and-retry cycles one command may
// consume before rank 0 gives up on the cluster.
const maxCmdRetries = 8

// dispatch executes one command collectively, surviving recoverable
// faults: each fault triggers a resync to the last common round boundary
// and a re-execution of only the remaining work. For round ingestion the
// target round is pinned up front, so rounds completed before the fault
// are never run twice — re-execution of the *failed* round restores
// exactly the uninterrupted stream (the boundary snapshot includes the
// PRNG state).
func (s *Server) dispatch(cmd command) result {
	target := uint64(s.node.Round())
	if cmd.Op == opRounds {
		r := cmd.Spec.Rounds
		if r == 0 {
			r = 1
		}
		target += uint64(r)
	}
	for attempt := 0; ; attempt++ {
		run := cmd
		if cmd.Op == opRounds {
			remaining := int(int64(target) - int64(s.node.Round()))
			if remaining <= 0 {
				// All rounds landed before the fault; the resync rolled
				// nothing back. Refresh the stats for the reply.
				run = command{Op: opStats}
			} else {
				run.Spec.Rounds = remaining
			}
		}
		res, fault := s.tryCollective(run)
		if !fault {
			return res
		}
		if attempt >= maxCmdRetries {
			return result{err: fmt.Errorf("nodesvc: command %q still faulting after %d resyncs", cmd.Op, attempt)}
		}
		if err := s.coordinateResync(); err != nil {
			return result{err: err}
		}
	}
}

// tryCollective runs one broadcast+execute cycle, converting recoverable
// transport faults into a fault=true return. Non-fault panics propagate.
func (s *Server) tryCollective(cmd command) (res result, fault bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := transport.AsFault(r); ok && s.ft != nil {
				fault = true
				return
			}
			panic(r)
		}
	}()
	// One broadcast wakes every follower; then all nodes (including this
	// one) execute the command's collectives in lockstep.
	reservoir.BroadcastValue(s.node, 0, cmd, commandWords)
	res = s.execute(cmd)
	return
}

// execute runs one command's collective part on this node (all ranks call
// it with the same command).
func (s *Server) execute(cmd command) result {
	switch cmd.Op {
	case opRounds:
		src, err := s.source(cmd.Spec)
		if err != nil {
			// Roots validate before broadcasting; reaching this on any
			// rank means the cluster configs diverge.
			return result{err: fmt.Errorf("building synthetic source: %w", err)}
		}
		rounds := cmd.Spec.Rounds
		if rounds == 0 {
			rounds = 1
		}
		for i := 0; i < rounds; i++ {
			phase0 := s.node.PhaseStats()
			roundStart := time.Now()
			s.node.ProcessRound(src)
			// Every completed round becomes a restorable boundary
			// (in-memory ring and, when persistence is on, a slot write)
			// — the recovery protocol's rollback grain.
			if err := s.captureBoundary(); err != nil {
				return result{err: err}
			}
			s.mRoundSeconds.Observe(time.Since(roundStart).Seconds())
			// Overlap is measured against the sharded scan's own round
			// clock (zero when pipelining is off — nothing to observe).
			if d := s.node.PhaseStats(); d.RoundNS > phase0.RoundNS {
				s.mOverlapPct.Observe(100 * float64(d.OverlapNS-phase0.OverlapNS) / float64(d.RoundNS-phase0.RoundNS))
			}
		}
		if cmd.DeferStats {
			// Leave the last round's selection in flight (the next
			// command's scan will overlap it) and skip the stats
			// reduction; the caller refreshes collectively later.
			return result{stats: s.lastStats()}
		}
		s.node.DrainPending()
		return result{stats: s.publishStats()}
	case opStats:
		s.node.DrainPending()
		return result{stats: s.publishStats()}
	case opSample:
		items := s.node.CollectSample()
		st := s.publishStats()
		out := make([]service.WireItem, len(items))
		for i, it := range items {
			out[i] = service.WireItem{W: it.W, ID: it.ID}
		}
		return result{stats: st, items: out}
	case opShutdown:
		return result{stats: s.lastStats()}
	default:
		return result{err: fmt.Errorf("unknown cluster command %q", cmd.Op)}
	}
}

// sourceKey identifies a compiled source by the spec's value: every field
// BuildSource reads, with the scenario dereferenced and Rounds cleared.
type sourceKey struct {
	spec        service.SyntheticSpec
	hasScenario bool
	scenario    scenario.Spec
}

// source returns the compiled source of spec, reusing the last one when
// the spec is unchanged (sources are immutable and safe to share).
func (s *Server) source(spec service.SyntheticSpec) (reservoir.Source, error) {
	key := sourceKey{spec: spec, hasScenario: spec.Scenario != nil}
	if key.hasScenario {
		key.scenario = *spec.Scenario
	}
	key.spec.Scenario, key.spec.Rounds = nil, 0
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	if s.src != nil && key == s.srcKey {
		return s.src, nil
	}
	src, err := spec.BuildSource(s.runCfg)
	if err != nil {
		return nil, err
	}
	s.srcKey, s.src = key, src
	return src, nil
}

// publishStats aggregates cluster-wide counters (one merged reduction to
// rank 0) and returns the updated stats. Only rank 0 receives the totals,
// so only rank 0 caches them for the non-collective GET
// /v1/cluster/stats and the cluster gauges; the other ranks' totals are
// zero and their replies are discarded.
func (s *Server) publishStats() Stats {
	net, cnt, phase := s.node.ClusterStats()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.snapshotLocked(net, cnt, phase)
	if s.node.Rank() == 0 {
		s.lastStat = st
	}
	s.statRound.Store(int64(st.Rounds))
	return st
}

func (s *Server) snapshotLocked(net reservoir.NetworkStats, cnt reservoir.Counters, phase reservoir.PhaseStats) Stats {
	th, have := s.node.Threshold()
	return Stats{
		Mode:            "cluster-node",
		P:               s.node.P(),
		Algorithm:       s.node.Algorithm(),
		K:               s.opts.Config.K,
		Seed:            s.opts.Config.Seed,
		Uniform:         !s.opts.Config.Weighted,
		Shards:          s.opts.Config.Shards,
		Pipeline:        s.opts.Config.Pipeline,
		Rounds:          s.node.Round(),
		SampleSize:      s.node.SampleSize(),
		Threshold:       th,
		HaveThreshold:   have,
		ItemsProcessed:  cnt.ItemsProcessed,
		Inserted:        cnt.Inserted,
		Selections:      cnt.Selections,
		SelectionRounds: cnt.SelectionRounds,
		WallNS:          s.node.ClockNS(),
		Network: NetworkStats{
			Messages: net.Messages,
			Words:    net.Words,
			Bytes:    net.Bytes,
		},
		ScanNS:    phase.ScanNS,
		CollNS:    phase.CollNS,
		OverlapNS: phase.OverlapNS,
		RoundNS:   phase.RoundNS,
		FlushNS:   phase.FlushNS,
	}
}

func (s *Server) lastStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastStat
}

// submit queues a command for the collective loop and waits for its
// result. It fails fast once shutdown has been requested.
func (s *Server) submit(cmd command) (result, bool) {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return result{}, false
	}
	if cmd.Op == opShutdown {
		s.shutdown = true
	}
	s.mu.Unlock()
	p := &pending{cmd: cmd, reply: make(chan result, 1)}
	select {
	case s.cmds <- p:
	case <-s.done:
		return result{}, false
	}
	select {
	case r := <-p.reply:
		return r, true
	case <-s.done:
		// The loop exited; it replies (buffered) before breaking, so a
		// processed command's result is still retrievable.
		select {
		case r := <-p.reply:
			return r, true
		default:
			return result{}, false
		}
	}
}

// handleHealth is the node's readiness probe, served on rank 0's control
// API and on every rank's ops listener. It reports 503 with formed=false
// until the node has (re)joined the cluster — a rejoining node is alive
// but must not take traffic before its resync commits.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	formed := s.Formed()
	status, code := "ok", http.StatusOK
	if !formed {
		status, code = "forming", http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, map[string]any{
		"status": status,
		"formed": formed,
		"mode":   "cluster-node",
		"rank":   s.node.Rank(),
		"p":      s.node.P(),
		"rounds": s.statRound.Load(),
	})
}

// OpsHandler returns the per-node operational endpoints — GET /healthz
// and GET /metrics — servable on every rank (rank 0's control API also
// includes both). cmd/reservoir-serve binds it to the -metrics listener.
func (s *Server) OpsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	return mux
}

// Handler returns rank 0's control API handler (exported for tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /v1/cluster/rounds", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Synthetic *service.SyntheticSpec `json:"synthetic"`
			// defer_stats skips the post-command stats reduction so a
			// pipelined round's selection stays in flight across requests;
			// refresh with GET /v1/cluster/stats?refresh=1.
			DeferStats bool `json:"defer_stats,omitempty"`
		}
		if err := service.DecodeBody(w, r, 1<<20, &req); err != nil {
			service.WriteErrorf(w, service.APIErrorCode(err, http.StatusBadRequest), "%v", err)
			return
		}
		if req.Synthetic == nil {
			service.WriteErrorf(w, http.StatusBadRequest, "node mode ingests synthetic rounds; body needs {\"synthetic\": {...}}")
			return
		}
		spec := *req.Synthetic
		if spec.BatchLen < 1 || spec.BatchLen > maxBatchLen {
			service.WriteErrorf(w, http.StatusBadRequest, "batch_len must be in [1, %d], got %d", maxBatchLen, spec.BatchLen)
			return
		}
		if spec.Rounds < 0 || spec.Rounds > maxRounds {
			service.WriteErrorf(w, http.StatusBadRequest, "rounds must be in [0, %d], got %d", maxRounds, spec.Rounds)
			return
		}
		if _, err := s.source(spec); err != nil {
			service.WriteErrorf(w, http.StatusBadRequest, "%v", err)
			return
		}
		res, ok := s.submit(command{Op: opRounds, Spec: spec, DeferStats: req.DeferStats})
		if !ok {
			service.WriteErrorf(w, http.StatusServiceUnavailable, "cluster is shutting down")
			return
		}
		if res.err != nil {
			service.WriteErrorf(w, http.StatusInternalServerError, "%v", res.err)
			return
		}
		service.WriteJSON(w, http.StatusOK, res.stats)
	})
	mux.HandleFunc("GET /v1/cluster/sample", func(w http.ResponseWriter, r *http.Request) {
		res, ok := s.submit(command{Op: opSample})
		if !ok {
			service.WriteErrorf(w, http.StatusServiceUnavailable, "cluster is shutting down")
			return
		}
		if res.err != nil {
			service.WriteErrorf(w, http.StatusInternalServerError, "%v", res.err)
			return
		}
		service.WriteJSON(w, http.StatusOK, SampleResponse{Size: len(res.items), Items: res.items})
	})
	mux.HandleFunc("GET /v1/cluster/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("refresh") == "1" {
			// Collective refresh: drains any deferred selection and runs
			// the stats reduction (the counterpart of defer_stats).
			res, ok := s.submit(command{Op: opStats})
			if !ok {
				service.WriteErrorf(w, http.StatusServiceUnavailable, "cluster is shutting down")
				return
			}
			if res.err != nil {
				service.WriteErrorf(w, http.StatusInternalServerError, "%v", res.err)
				return
			}
			service.WriteJSON(w, http.StatusOK, res.stats)
			return
		}
		service.WriteJSON(w, http.StatusOK, s.lastStats())
	})
	mux.HandleFunc("POST /v1/cluster/shutdown", func(w http.ResponseWriter, r *http.Request) {
		res, ok := s.submit(command{Op: opShutdown})
		if !ok {
			service.WriteErrorf(w, http.StatusServiceUnavailable, "cluster is already shutting down")
			return
		}
		if res.err != nil {
			service.WriteErrorf(w, http.StatusInternalServerError, "%v", res.err)
			return
		}
		service.WriteJSON(w, http.StatusOK, map[string]string{"status": "shutting down"})
	})
	return mux
}
