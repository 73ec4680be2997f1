package reservoir

import (
	"fmt"

	"reservoir/internal/core"
	"reservoir/internal/simnet"
	"reservoir/internal/transport"
	"reservoir/internal/workload"
)

// Algorithm selects which distributed sampler a Cluster runs.
type Algorithm int

const (
	// Distributed is the paper's fully distributed algorithm (Sec 4.2):
	// no coordinator, threshold found by distributed selection.
	Distributed Algorithm = iota
	// CentralizedGather is the comparison baseline (Sec 4.5): candidates
	// are gathered at a root PE which selects sequentially.
	CentralizedGather
)

// String names the algorithm as in the paper's plots.
func (a Algorithm) String() string {
	switch a {
	case Distributed:
		return "ours"
	case CentralizedGather:
		return "gather"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// MarshalText implements encoding.TextMarshaler using the paper's names,
// so Algorithm round-trips through JSON configs (e.g. reservoir-serve).
func (a Algorithm) MarshalText() ([]byte, error) {
	switch a {
	case Distributed, CentralizedGather:
		return []byte(a.String()), nil
	default:
		return nil, fmt.Errorf("reservoir: unknown algorithm %d", int(a))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler. It accepts the
// paper's plot names ("ours", "gather") and descriptive aliases; the empty
// string selects Distributed.
func (a *Algorithm) UnmarshalText(text []byte) error {
	switch string(text) {
	case "", "ours", "distributed":
		*a = Distributed
	case "gather", "centralized":
		*a = CentralizedGather
	default:
		return fmt.Errorf("reservoir: unknown algorithm %q (want \"ours\" or \"gather\")", text)
	}
	return nil
}

// NetworkStats reports a cluster's network traffic, populated from
// whichever transport backend the sampler runs on. On the in-process
// simulator Words is the α+βℓ cost-model word count and Bytes is Words*8;
// on a real network (see reservoir-serve's node mode) Words is the same
// cost-model count declared by the senders and Bytes is the actual encoded
// payload volume on the wire.
type NetworkStats struct {
	// Messages is the number of point-to-point messages sent.
	Messages int64
	// Words is the cost-model size of all messages in 8-byte machine words.
	Words int64
	// Bytes is the payload volume in bytes (Words*8 when simulated).
	Bytes int64
}

// statsFromTransport converts transport-level counters to the public type.
func statsFromTransport(s transport.Stats) NetworkStats {
	return NetworkStats{Messages: s.Messages, Words: s.Words, Bytes: s.Bytes}
}

// Cluster runs a distributed reservoir sampler over p simulated PEs: p
// Nodes on the in-process simulator's transport, so a simulated cluster
// runs the same round driver as a multi-process one. All per-round
// methods drive every node concurrently (one goroutine each) and return
// when the round's collective operations have completed.
type Cluster struct {
	sim   *simnet.Cluster
	nodes []*Node
}

// NewCluster creates a cluster of p PEs running the configured sampler.
func NewCluster(p int, cfg Config, opts ...Option) (*Cluster, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.cost == (simnet.CostParams{}) {
		model := cfg.Model
		if model == (CostModel{}) {
			model = DefaultCostModel()
		}
		o.cost = simnet.CostParams{AlphaNS: model.AlphaNS, BetaNS: model.BetaNS}
	}
	c := &Cluster{sim: simnet.NewCluster(p, o.cost), nodes: make([]*Node, p)}
	for i := range c.nodes {
		var err error
		if c.nodes[i], err = NewNode(c.sim.PE(i), cfg, opts...); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// options collects Option settings.
type options struct {
	algo Algorithm
	cost simnet.CostParams
}

// Option customizes NewCluster.
type Option func(*options)

// WithAlgorithm selects the sampler implementation (default Distributed).
func WithAlgorithm(a Algorithm) Option {
	return func(o *options) { o.algo = a }
}

// WithNetworkCost overrides the simulated network parameters α (per
// message) and β (per 8-byte word), both in nanoseconds.
func WithNetworkCost(alphaNS, betaNS float64) Option {
	return func(o *options) { o.cost = simnet.CostParams{AlphaNS: alphaNS, BetaNS: betaNS} }
}

// P returns the number of PEs.
func (c *Cluster) P() int { return len(c.nodes) }

// Algorithm returns the sampler implementation the cluster runs.
func (c *Cluster) Algorithm() Algorithm { return c.nodes[0].Algorithm() }

// Round returns the number of mini-batch rounds processed so far.
func (c *Cluster) Round() int { return c.nodes[0].Round() }

// parallel runs f on every node concurrently, one goroutine per PE.
func (c *Cluster) parallel(f func(n *Node)) {
	c.sim.Parallel(func(pe *simnet.PE) { f(c.nodes[pe.ID()]) })
}

// ProcessRound feeds every PE its next mini-batch from src and runs the
// collective threshold update.
func (c *Cluster) ProcessRound(src Source) {
	c.parallel(func(n *Node) { n.ProcessRound(src) })
}

// ProcessBatches feeds explicit per-PE batches (len(batches) must equal P).
func (c *Cluster) ProcessBatches(batches []SliceBatch) error {
	if len(batches) != c.P() {
		return fmt.Errorf("reservoir: got %d batches for %d PEs", len(batches), c.P())
	}
	c.parallel(func(n *Node) { n.ProcessBatch(batches[n.Rank()]) })
	return nil
}

// Sample gathers and returns the current global sample.
func (c *Cluster) Sample() []Item {
	var out []Item
	c.parallel(func(n *Node) {
		if s := n.CollectSample(); n.Rank() == 0 {
			out = s
		}
	})
	return out
}

// SampleSnapshot returns the current global sample without running the
// collective gather: it concatenates every PE's local reservoir directly,
// so it charges no virtual time and leaves the simulated traffic counters
// untouched. The result has the same contents as Sample (the PE-order
// concatenation of the local samples). It must not be called concurrently
// with ProcessRound, ProcessBatches, or Sample — callers that observe a
// live cluster (e.g. the serving layer's per-run ingest worker) must
// serialize it with the rounds themselves.
func (c *Cluster) SampleSnapshot() []Item {
	c.drainPending()
	out := make([]Item, 0, c.SampleSize())
	for _, n := range c.nodes {
		out = append(out, n.LocalSample()...)
	}
	return out
}

// drainPending completes a pipelined round still awaiting its deferred
// selection collectives (Config.Pipeline), so observers only ever see
// committed round boundaries. Draining early is stream-neutral (DESIGN.md
// §2.6); it does run the selection's collectives, so it charges virtual
// time and traffic like the round itself would have. All PEs defer in
// lockstep, so checking PE 0 decides for the cluster.
func (c *Cluster) drainPending() {
	if c.nodes[0].Pending() {
		c.parallel((*Node).DrainPending)
	}
}

// SampleSize returns the current global sample size.
func (c *Cluster) SampleSize() int { return c.nodes[0].SampleSize() }

// Threshold returns the current global key threshold and whether one has
// been established.
func (c *Cluster) Threshold() (float64, bool) { return c.nodes[0].Threshold() }

// VirtualTime returns the largest PE virtual clock in nanoseconds — the
// simulated elapsed time of all processing so far.
func (c *Cluster) VirtualTime() float64 { return c.sim.MaxClock() }

// ResetClocks zeroes all virtual clocks (e.g. between measurement phases).
func (c *Cluster) ResetClocks() { c.sim.ResetClocks() }

// NetworkStats returns cluster-wide message and word counters.
func (c *Cluster) NetworkStats() NetworkStats {
	s := c.sim.Stats()
	return NetworkStats{Messages: s.Messages, Words: s.Words, Bytes: s.Words * 8}
}

// Timing returns the per-phase maximum over all PEs of the accumulated
// virtual phase times (the cluster-level composition of Figure 6).
func (c *Cluster) Timing() Timing {
	var t Timing
	for _, n := range c.nodes {
		t = t.Max(n.Timing())
	}
	return t
}

// Counters returns the sum of all PEs' operation counters.
func (c *Cluster) Counters() Counters {
	var total Counters
	for _, n := range c.nodes {
		total.Add(n.Counters())
	}
	return total
}

// PECounters returns one PE's counters (for per-PE load analyses).
func (c *Cluster) PECounters(pe int) Counters { return c.nodes[pe].Counters() }

// PETiming returns one PE's accumulated per-phase virtual times.
func (c *Cluster) PETiming(pe int) Timing { return c.nodes[pe].Timing() }

// Cluster snapshot envelope framing (format v2: adds a magic/version
// header and per-PE operation counters to the v1 headerless layout, so
// recovered runs report the same lifetime counters as an uninterrupted
// run). After the header come the PE count and the round, then per PE
// its counters (Counters.AppendLE) and its length-prefixed state blob
// (Node.MarshalState). Each blob starts with its PE's kind byte, so a
// snapshot of one algorithm is refused when restored as the other.
const (
	clusterSnapMagic   = uint32(0x4C435352) // "RSCL"
	clusterSnapVersion = byte(2)
	// maxSnapshotPEs bounds the PE count of a snapshottable cluster:
	// Snapshot refuses larger clusters and RestoreCluster treats larger
	// declared counts as corruption before any allocation happens, so the
	// encoder and decoder limits always agree.
	maxSnapshotPEs = 4096
)

// Snapshot serializes the whole cluster's sampler state (per-PE
// reservoirs, threshold, PRNG states, operation counters) so a sampling
// process can be persisted and resumed bit-identically with
// RestoreCluster. Both algorithms support snapshots, up to
// maxSnapshotPEs PEs.
// Virtual-time measurements are not part of the state and restart from
// zero after a restore; operation counters round-trip.
func (c *Cluster) Snapshot() ([]byte, error) {
	if c.P() > maxSnapshotPEs {
		return nil, fmt.Errorf("reservoir: snapshots support at most %d PEs, cluster has %d", maxSnapshotPEs, c.P())
	}
	// Snapshots are round boundaries: complete a pipelined round first.
	c.drainPending()
	buf := transport.AppendU32(make([]byte, 0, 21), clusterSnapMagic)
	buf = append(buf, clusterSnapVersion)
	buf = transport.AppendU64(buf, uint64(c.P()))
	buf = transport.AppendU64(buf, uint64(c.Round()))
	for _, n := range c.nodes {
		blob, err := n.MarshalState()
		if err != nil {
			return nil, err
		}
		buf = n.Counters().AppendLE(buf)
		buf = transport.AppendBlob(buf, blob)
	}
	return buf, nil
}

// RestoreCluster reconstructs a cluster from a Snapshot. cfg and opts must
// match the snapshotting cluster's configuration. Corrupt, truncated, or
// length-lying input is rejected with an error before any sizable
// allocation is made.
func RestoreCluster(cfg Config, snapshot []byte, opts ...Option) (*Cluster, error) {
	d := transport.NewDec(snapshot)
	if d.U32() != clusterSnapMagic {
		return nil, fmt.Errorf("reservoir: not a cluster snapshot")
	}
	if v := d.U8(); v != clusterSnapVersion {
		return nil, fmt.Errorf("reservoir: unsupported cluster snapshot version %d", v)
	}
	p, round := d.U64(), d.U64()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("reservoir: snapshot: %w", err)
	}
	if p == 0 || p > maxSnapshotPEs {
		return nil, fmt.Errorf("reservoir: corrupt snapshot (p = %d)", p)
	}
	// Every PE needs at least its counters and blob-length prefix; check
	// before building a p-sized cluster so a length-lying header cannot
	// force a huge allocation.
	perPE := len(Counters{}.AppendLE(nil)) + 8
	if p > uint64(d.Remaining()/perPE) {
		return nil, fmt.Errorf("reservoir: truncated snapshot (%d bytes for %d PEs)", d.Remaining(), p)
	}
	c, err := NewCluster(int(p), cfg, opts...)
	if err != nil {
		return nil, err
	}
	for i, n := range c.nodes {
		cnt, blob := core.DecCounters(d), d.Blob()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("reservoir: snapshot PE %d: %w", i, err)
		}
		if err := n.RestoreState(blob, int(round)); err != nil {
			return nil, fmt.Errorf("reservoir: PE %d: %w", i, err)
		}
		n.RestoreCounters(cnt)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("reservoir: snapshot: %w", err)
	}
	// Every PE keeps its own copy of the global threshold, sample size
	// and item count, and collective code branches on them, so copies
	// that disagree would stall the next round.
	first := c.nodes[0]
	t0, have0 := first.Threshold()
	for i, n := range c.nodes {
		t, have := n.Threshold()
		if t != t0 || have != have0 || n.SampleSize() != first.SampleSize() || n.Seen() != first.Seen() {
			return nil, fmt.Errorf("reservoir: corrupt snapshot (PE %d disagrees with PE 0 on the global state)", i)
		}
	}
	return c, nil
}

// Ensure workload.Source implementations satisfy the aliased interface.
var _ Source = workload.UniformSource{}
