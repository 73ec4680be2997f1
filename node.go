package reservoir

import (
	"fmt"
	"time"

	"reservoir/internal/coll"
	"reservoir/internal/core"
	"reservoir/internal/transport"
)

// Node is one PE of a distributed sampling cluster: a single PE whose
// peers are reached through a transport.Conn. In production the peers
// live in other OS processes (internal/transport/tcpnet, wired up by
// reservoir-serve's node mode; see docs/DEPLOY.md); a Cluster is p Nodes
// on the in-process simulator. Both run this one round driver.
//
// All sampling methods are SPMD collectives: every node of the cluster
// must call the same methods in the same order with equivalent arguments,
// or the cluster deadlocks. Each node feeds its own local mini-batch per
// round; the threshold selection runs across the network. Given the same
// configuration and per-PE input stream, the sample is byte-identical on
// every transport (the transport equivalence suite pins this) and to the
// sequential reference, core.DistPE.ProcessBatch.
//
// A Node is not safe for concurrent use; drive it from one goroutine.
type Node struct {
	comm    *coll.Comm
	conn    transport.Conn
	sampler core.Sampler
	algo    Algorithm
	round   int
	phase   PhaseStats
}

// PhaseStats is the wall-clock per-phase breakdown of a node's round
// loop, in nanoseconds, accumulated over all rounds. ScanNS is the local
// skip scan (StartScan); CollNS is the collective side (the deferred
// selection drain plus the merge/selection of CommitScan); OverlapNS is
// the wall time the pipelined driver saved by running the two
// concurrently (min of the overlapped pair per round); RoundNS is total
// round wall time. Only the distributed sampler fills these in.
// FlushNS is the transport's accumulated coalesce-flush time (staged
// frame emission plus socket drain), reported by transports that track
// it (tcpnet); it is filled in at ClusterStats time, not per round.
type PhaseStats struct {
	ScanNS    int64
	CollNS    int64
	OverlapNS int64
	RoundNS   int64
	FlushNS   int64
}

// Add accumulates other into p.
func (p *PhaseStats) Add(other PhaseStats) {
	p.ScanNS += other.ScanNS
	p.CollNS += other.CollNS
	p.OverlapNS += other.OverlapNS
	p.RoundNS += other.RoundNS
	p.FlushNS += other.FlushNS
}

// NewNode creates this process's PE of a multi-process cluster. Every
// process must pass an identical Config (and WithAlgorithm option) or the
// collective protocol diverges.
func NewNode(conn transport.Conn, cfg Config, opts ...Option) (*Node, error) {
	o := options{algo: Distributed}
	for _, opt := range opts {
		opt(&o)
	}
	validated := cfg
	if validated.Model == (CostModel{}) {
		validated.Model = DefaultCostModel()
	}
	comm := coll.New(conn)
	n := &Node{comm: comm, conn: conn, algo: o.algo}
	var err error
	switch o.algo {
	case CentralizedGather:
		n.sampler, err = core.NewGatherPE(comm, validated)
	default:
		n.sampler, err = core.NewDistPE(comm, validated)
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// Rank returns this node's rank in 0..P()-1.
func (n *Node) Rank() int { return n.comm.Rank() }

// P returns the cluster size.
func (n *Node) P() int { return n.comm.P() }

// Round returns the number of mini-batch rounds processed so far.
func (n *Node) Round() int { return n.round }

// Algorithm returns the sampler implementation the cluster runs.
func (n *Node) Algorithm() Algorithm { return n.algo }

// ProcessBatch ingests this node's mini-batch for the current round and
// runs the collective threshold update (SPMD: all nodes must call it).
// For the distributed sampler the node drives the three round phases
// itself so that — under Config.Pipeline — the local scan of this round
// overlaps the still-in-flight selection collectives of the previous
// one. The overlap is safe and byte-identical to the sequential phase
// order of core.DistPE.ProcessBatch because StartScan and FinishPending
// touch disjoint sampler state (DESIGN.md §2.6).
func (n *Node) ProcessBatch(b Batch) {
	if pe, ok := n.sampler.(*core.DistPE); ok {
		n.processSharded(pe, b)
	} else {
		n.sampler.ProcessBatch(b)
	}
	n.round++
}

// processSharded runs one sharded round, overlapping the scan with the
// previous round's deferred selection when one is pending.
func (n *Node) processSharded(pe *core.DistPE, b Batch) {
	r0 := time.Now()
	var buf *core.ScanBuf
	if pe.Pending() {
		var scanDur time.Duration
		done := make(chan struct{})
		go func() {
			s0 := time.Now()
			buf = pe.StartScan(b)
			scanDur = time.Since(s0)
			close(done)
		}()
		f0 := time.Now()
		pe.FinishPending()
		finishDur := time.Since(f0)
		<-done
		n.phase.ScanNS += scanDur.Nanoseconds()
		n.phase.CollNS += finishDur.Nanoseconds()
		saved := scanDur
		if finishDur < saved {
			saved = finishDur
		}
		n.phase.OverlapNS += saved.Nanoseconds()
	} else {
		s0 := time.Now()
		buf = pe.StartScan(b)
		n.phase.ScanNS += time.Since(s0).Nanoseconds()
	}
	c0 := time.Now()
	pe.CommitScan(b, buf)
	n.phase.CollNS += time.Since(c0).Nanoseconds()
	n.phase.RoundNS += time.Since(r0).Nanoseconds()
}

// DrainPending completes a pipelined round's deferred selection
// collectives, if any (SPMD; no-op otherwise). Node-mode round
// boundaries — sample collection, state snapshots — drain first so they
// always observe a committed round; draining early never changes the
// sampling stream (DESIGN.md §2.6).
func (n *Node) DrainPending() {
	if pe, ok := n.sampler.(*core.DistPE); ok {
		pe.FinishPending()
	}
}

// Pending reports whether a pipelined round's selection is still
// deferred on this node.
func (n *Node) Pending() bool {
	pe, ok := n.sampler.(*core.DistPE)
	return ok && pe.Pending()
}

// PhaseStats returns this node's accumulated wall-clock round-phase
// breakdown (zero for the centralized gather baseline).
func (n *Node) PhaseStats() PhaseStats { return n.phase }

// ProcessRound ingests this node's next mini-batch from src (SPMD).
func (n *Node) ProcessRound(src Source) {
	n.ProcessBatch(src.NextBatch(n.Rank(), n.round))
}

// CollectSample gathers the global sample at rank 0, which receives the
// full item slice; other ranks receive nil (SPMD).
func (n *Node) CollectSample() []Item { return n.sampler.CollectSample() }

// LocalSample returns this node's part of the sample without any
// communication.
func (n *Node) LocalSample() []Item { return n.sampler.LocalSample() }

// SampleSize returns the current global sample size (agreed by all nodes
// after each round; no communication).
func (n *Node) SampleSize() int { return n.sampler.SampleSize() }

// Threshold returns the current global key threshold and whether one has
// been established (no communication).
func (n *Node) Threshold() (float64, bool) { return n.sampler.Threshold() }

// Timing returns this node's accumulated per-phase times — wall-clock
// nanoseconds on real transports.
func (n *Node) Timing() Timing { return n.sampler.Timing() }

// Counters returns this node's accumulated operation counts.
func (n *Node) Counters() Counters { return n.sampler.Counters() }

// ClockNS returns the transport's clock in nanoseconds (wall time since
// the mesh came up on tcpnet).
func (n *Node) ClockNS() float64 { return n.conn.Clock() }

// NetworkStats returns this node's own traffic counters, if the transport
// reports them (zero otherwise). See ClusterStats for the cluster-wide
// view.
func (n *Node) NetworkStats() NetworkStats {
	if s, ok := n.conn.(transport.StatsSource); ok {
		return statsFromTransport(s.Stats())
	}
	return NetworkStats{}
}

// clusterStats carries all three stat families through one reduction
// so a stats round costs log p latency terms once, not three times. It
// crosses the wire on stats refreshes, so it gets a codec
// (WireIDClusterStats, wire.go).
type clusterStats struct {
	Net   NetworkStats
	Ops   Counters
	Phase PhaseStats
}

// ClusterStats sums every node's traffic counters, operation counters,
// and round-phase breakdown with a single reduction to rank 0
// (collective: every node must call it). Rank 0 gets the totals; the
// other nodes get zero values, as only rank 0 publishes cluster-wide
// stats.
func (n *Node) ClusterStats() (NetworkStats, Counters, PhaseStats) {
	local := clusterStats{Net: n.NetworkStats(), Ops: n.sampler.Counters(), Phase: n.phase}
	if f, ok := n.conn.(interface{ FlushNS() int64 }); ok {
		local.Phase.FlushNS = f.FlushNS()
	}
	total := coll.Reduce(n.comm, 0, local, func(a, b clusterStats) clusterStats {
		a.Net.Messages += b.Net.Messages
		a.Net.Words += b.Net.Words
		a.Net.Bytes += b.Net.Bytes
		a.Ops.Add(b.Ops)
		a.Phase.Add(b.Phase)
		return a
	}, 14)
	if n.Rank() != 0 {
		return NetworkStats{}, Counters{}, PhaseStats{}
	}
	return total.Net, total.Ops, total.Phase
}

// Seen returns the global number of items processed so far, as known by
// this node (no communication).
func (n *Node) Seen() int64 { return n.sampler.Seen() }

// MarshalState snapshots this node's sampler state (reservoir contents,
// thresholds, PRNG) as an opaque blob. Together with the round counter it
// is everything a crash-restarted node needs to resume bit-identically;
// internal/nodesvc persists one per round boundary.
func (n *Node) MarshalState() ([]byte, error) { return n.sampler.MarshalBinary() }

// RestoreState restores a MarshalState blob taken at the given round
// boundary on this node (same Config, same rank, same algorithm).
// Operation counters reset to zero; use RestoreCounters to reinstate
// persisted ones.
func (n *Node) RestoreState(blob []byte, round int) error {
	if err := n.sampler.UnmarshalBinary(blob); err != nil {
		return err
	}
	n.round = round
	return nil
}

// RestoreCounters reinstates operation counters zeroed by RestoreState.
func (n *Node) RestoreCounters(c Counters) { n.sampler.RestoreCounters(c) }

// ResetTags rewinds the node's collective tag sequence (see
// coll.Comm.Reset). Part of the cluster recovery protocol: every node
// resets in lockstep after the transport discarded the failed round's
// traffic. Outside recovery, never call this.
func (n *Node) ResetTags() { n.comm.Reset() }

// BroadcastValue distributes v from the root rank to every node of n's
// cluster and returns it on all of them (SPMD). It shares the node's
// collective tag sequence, so control planes built on it (like
// reservoir-serve's node mode, which broadcasts commands between rounds)
// stay in lockstep with the sampling collectives. words is v's size in
// 8-byte machine words under the cost model.
func BroadcastValue[T any](n *Node, root int, v T, words int) T {
	if root < 0 || root >= n.P() {
		panic(fmt.Sprintf("reservoir: broadcast root %d outside cluster of %d", root, n.P()))
	}
	return coll.Broadcast(n.comm, root, v, words)
}
