// Package core implements the paper's reservoir sampling algorithms:
//
//   - sequential weighted sampling with exponential jumps (Sec 4.1) and
//     sequential uniform sampling with geometric jumps (Sec 4.3),
//   - the fully distributed sampler of Algorithm 1 (Sec 4.2) with fixed or
//     variable sample size (Sec 4.4) and the implementation optimizations
//     of Sec 5,
//   - the centralized gathering baseline (Sec 4.5),
//   - a naive key-sorting oracle used as distributional ground truth in
//     tests.
//
// The distributed samplers are SPMD: one instance runs per simulated PE and
// all instances must process their mini-batches collectively, round by
// round.
package core

import (
	"fmt"

	"reservoir/internal/costmodel"
	"reservoir/internal/transport"
)

// SelStrategy chooses the distributed selection algorithm used to find the
// new threshold after each mini-batch (paper Sec 3.3).
type SelStrategy int

const (
	// SelSinglePivot is the universally applicable algorithm of Sec 3.3.3
	// with one pivot per round ("ours").
	SelSinglePivot SelStrategy = iota
	// SelMultiPivot uses Config.Pivots pivots per round ("ours-d").
	SelMultiPivot
	// SelRandomDist exploits randomly distributed input (Sec 3.3.1).
	SelRandomDist
)

// String returns the paper's name for the strategy.
func (s SelStrategy) String() string {
	switch s {
	case SelSinglePivot:
		return "single-pivot"
	case SelMultiPivot:
		return "multi-pivot"
	case SelRandomDist:
		return "random-dist"
	default:
		return fmt.Sprintf("SelStrategy(%d)", int(s))
	}
}

// MarshalText implements encoding.TextMarshaler so SelStrategy round-trips
// through JSON configs (e.g. reservoir-serve).
func (s SelStrategy) MarshalText() ([]byte, error) {
	switch s {
	case SelSinglePivot, SelMultiPivot, SelRandomDist:
		return []byte(s.String()), nil
	default:
		return nil, fmt.Errorf("core: unknown selection strategy %d", int(s))
	}
}

// UnmarshalText implements encoding.TextUnmarshaler. It accepts the
// String() names plus the paper's plot aliases ("ours", "ours-d"); the
// empty string selects SelSinglePivot.
func (s *SelStrategy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "", "single-pivot", "ours":
		*s = SelSinglePivot
	case "multi-pivot", "ours-d":
		*s = SelMultiPivot
	case "random-dist":
		*s = SelRandomDist
	default:
		return fmt.Errorf("core: unknown selection strategy %q", text)
	}
	return nil
}

// Config configures a sampler.
type Config struct {
	// K is the sample size for fixed-size sampling.
	K int
	// KMin/KMax, when KMax > 0, switch the distributed sampler to
	// variable-size mode (Sec 4.4): the sample may grow to KMax before a
	// (faster, approximate) selection prunes it back to a size in
	// [KMin, KMax]. K is ignored in this mode.
	KMin, KMax int
	// Weighted selects weighted (true) or uniform (false) sampling.
	Weighted bool
	// Strategy picks the distributed selection algorithm.
	Strategy SelStrategy
	// Pivots is the number of selection pivots d for SelMultiPivot.
	Pivots int
	// LocalThreshold enables the first-batch local thresholding
	// optimization of Sec 5.
	LocalThreshold bool
	// Shards is the fixed logical shard count of the distributed
	// sampler's batch scan (0 means 1). Every batch is cut into Shards
	// contiguous chunks, each scanned with its own domain-separated RNG
	// substream and merged deterministically in index order — the
	// sampling stream depends on Shards but not on GOMAXPROCS, so
	// simulator and cluster agree at any core count.
	Shards int
	// Pipeline defers each round's selection collectives into the next
	// round so a node can overlap them with the next batch's scan. The
	// scan uses the last committed threshold, which is
	// conservative-correct: a stale threshold only admits extra
	// candidates that the merge filters out (DESIGN.md §2.6). Only the
	// distributed sampler honors it.
	Pipeline bool
	// Seed drives all randomness; per-PE streams are derived from it.
	Seed uint64
	// Model holds the virtual-time cost model; zero value means
	// costmodel.Default().
	Model costmodel.Model
}

// sampleCap returns the maximum sample size (K, or KMax in variable mode).
func (c Config) sampleCap() int {
	if c.KMax > 0 {
		return c.KMax
	}
	return c.K
}

// validate normalizes and checks the configuration.
func (c Config) validate() (Config, error) {
	if c.KMax > 0 {
		if c.KMin < 1 || c.KMin > c.KMax {
			return c, fmt.Errorf("core: invalid variable sample range [%d, %d]", c.KMin, c.KMax)
		}
	} else if c.K < 1 {
		return c, fmt.Errorf("core: sample size K must be >= 1, got %d", c.K)
	}
	if c.Strategy == SelMultiPivot && c.Pivots < 2 {
		c.Pivots = 8 // the paper's default d
	}
	if c.Strategy != SelMultiPivot {
		c.Pivots = 1
	}
	if c.Model == (costmodel.Model{}) {
		c.Model = costmodel.Default()
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 || c.Shards > maxShards {
		return c, fmt.Errorf("core: Shards must be in [0, %d], got %d", maxShards, c.Shards)
	}
	return c, nil
}

// maxShards bounds the logical shard count: shards are a determinism
// domain, not a thread count, and hundreds of per-shard RNG streams per
// PE would only bloat snapshots.
const maxShards = 256

// Timing is the per-phase virtual-time breakdown of one PE, matching the
// running time composition of the paper's Figure 6.
type Timing struct {
	// ScanNS is local batch processing: the skip scan and reservoir
	// insertions ("insert" in Figure 6).
	ScanNS float64
	// SelectNS is the distributed selection (or, for the gather baseline,
	// the root's sequential selection).
	SelectNS float64
	// ThresholdNS is the threshold all-reduce/broadcast plus the local
	// reservoir split.
	ThresholdNS float64
	// GatherNS is the candidate gathering of the centralized baseline
	// (zero for the distributed algorithm).
	GatherNS float64
}

// TotalNS returns the sum of all phases.
func (t Timing) TotalNS() float64 {
	return t.ScanNS + t.SelectNS + t.ThresholdNS + t.GatherNS
}

// Add accumulates other into t.
func (t *Timing) Add(other Timing) {
	t.ScanNS += other.ScanNS
	t.SelectNS += other.SelectNS
	t.ThresholdNS += other.ThresholdNS
	t.GatherNS += other.GatherNS
}

// Sub returns t minus other, per phase (used to isolate the steady-state
// rounds from the reservoir fill phase).
func (t Timing) Sub(other Timing) Timing {
	return Timing{
		ScanNS:      t.ScanNS - other.ScanNS,
		SelectNS:    t.SelectNS - other.SelectNS,
		ThresholdNS: t.ThresholdNS - other.ThresholdNS,
		GatherNS:    t.GatherNS - other.GatherNS,
	}
}

// Max returns the per-phase maximum of t and other (used to aggregate the
// per-PE breakdowns into a cluster-level composition).
func (t Timing) Max(other Timing) Timing {
	m := t
	if other.ScanNS > m.ScanNS {
		m.ScanNS = other.ScanNS
	}
	if other.SelectNS > m.SelectNS {
		m.SelectNS = other.SelectNS
	}
	if other.ThresholdNS > m.ThresholdNS {
		m.ThresholdNS = other.ThresholdNS
	}
	if other.GatherNS > m.GatherNS {
		m.GatherNS = other.GatherNS
	}
	return m
}

// Counters aggregates the operation counts of one PE.
type Counters struct {
	// ItemsProcessed counts all items of all batches handled by this PE.
	ItemsProcessed int64
	// Inserted counts insertions into the local reservoir (the b* of
	// Theorem 1, summed over batches), or retained candidates for the
	// gather baseline.
	Inserted int64
	// CandidateWords counts machine words shipped to the root by the
	// gather baseline.
	CandidateWords int64
	// Selections counts threshold selections; SelectionRounds sums their
	// recursion depths; TailSelections counts selections that the tail
	// all-reduction finished (internal/distsel).
	Selections      int64
	SelectionRounds int64
	TailSelections  int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.ItemsProcessed += other.ItemsProcessed
	c.Inserted += other.Inserted
	c.CandidateWords += other.CandidateWords
	c.Selections += other.Selections
	c.SelectionRounds += other.SelectionRounds
	c.TailSelections += other.TailSelections
}

// fields lists c's counters in encoding order.
func (c *Counters) fields() [6]*int64 {
	return [...]*int64{
		&c.ItemsProcessed, &c.Inserted, &c.CandidateWords,
		&c.Selections, &c.SelectionRounds, &c.TailSelections,
	}
}

// AppendLE appends c's counters to b as little-endian uint64s in field
// order — the counters layout of cluster snapshots and node boundary
// slots.
func (c Counters) AppendLE(b []byte) []byte {
	for _, f := range c.fields() {
		b = transport.AppendU64(b, uint64(*f))
	}
	return b
}

// DecCounters reads an AppendLE encoding from the cursor.
func DecCounters(d *transport.Dec) Counters {
	var c Counters
	for _, f := range c.fields() {
		*f = int64(d.U64())
	}
	return c
}
