// Package costmodel converts counted operations into virtual time for the
// simulated machine (see DESIGN.md §2 and §4). The distributed algorithms
// execute for real; only their *reported* running times are computed from
// these per-operation charges, which makes experiments deterministic and
// independent of the host machine.
//
// The two-level scan cost reproduces the cache crossover of the paper's
// strong scaling experiments (Sec 6.4): once the per-PE mini-batch fits
// into cache, local processing gets disproportionally faster, producing the
// superlinear speedup bump of Figures 4 and 5.
package costmodel

import "math"

// Model holds the per-operation virtual-time charges, in nanoseconds.
type Model struct {
	// AlphaNS and BetaNS are the communication parameters α (per message)
	// and β (per 8-byte machine word); they are forwarded to simnet.
	AlphaNS float64
	BetaNS  float64

	// ScanHotNS / ScanColdNS is the per-item cost of the weighted skip scan
	// when the per-PE batch does / does not fit into cache, and CacheItems
	// is the crossover batch size. The crossover is linearly smoothed over
	// [CacheItems, 2*CacheItems].
	ScanHotNS  float64
	ScanColdNS float64
	CacheItems int

	// BlockedSkipFactor multiplies the scan cost of the weighted skip
	// scan, whose 32-item blocked skip (Sec 5) jumps whole blocks.
	BlockedSkipFactor float64

	// RNGNS is the cost per random variate.
	RNGNS float64

	// TreeLevelNS is the per-level cost of B+ tree operations (insert,
	// rank, select, split); an operation on a tree of n items charges
	// TreeLevelNS * log2(n+2).
	TreeLevelNS float64

	// QuickselectNS is the per-element cost of the sequential selection at
	// the gather baseline's root.
	QuickselectNS float64

	// PackNS is the per-machine-word cost of packing/unpacking gather
	// payloads.
	PackNS float64
}

// Default returns charges loosely calibrated to a ~2.5 GHz server core and
// the paper's InfiniBand interconnect. Absolute values are not meant to
// match the paper's hardware; the *ratios* (scan vs. RNG vs. tree ops vs.
// α/β) are what shape the reproduced figures.
func Default() Model {
	return Model{
		AlphaNS:           2000,
		BetaNS:            1,
		ScanHotNS:         0.4,
		ScanColdNS:        1.6,
		CacheItems:        1 << 15,
		BlockedSkipFactor: 0.4,
		RNGNS:             8,
		TreeLevelNS:       15,
		QuickselectNS:     4,
		PackNS:            0.25,
	}
}

// ScanPerItemNS returns the charge for touching one item of a batch of
// batchLen items during the skip scan; blocked marks the weighted skip
// scan, which is charged BlockedSkipFactor.
func (m Model) ScanPerItemNS(batchLen int, blocked bool) float64 {
	c := m.ScanColdNS
	switch {
	case batchLen <= m.CacheItems:
		c = m.ScanHotNS
	case batchLen < 2*m.CacheItems:
		// Linear interpolation across the crossover region.
		f := float64(batchLen-m.CacheItems) / float64(m.CacheItems)
		c = m.ScanHotNS + float64(f*(m.ScanColdNS-m.ScanHotNS))
	}
	if blocked {
		c *= m.BlockedSkipFactor
	}
	return c
}

// TreeOpNS returns the charge for one B+ tree operation on a tree currently
// holding size items. The result is rounded here so a caller's
// clock += TreeOpNS(n)*2 cannot fuse into an arm64 multiply-add.
func (m Model) TreeOpNS(size int) float64 {
	return float64(m.TreeLevelNS * math.Log2(float64(size)+2))
}

// QuickselectCostNS returns the charge for selecting within n elements at
// the gather root (expected linear time).
func (m Model) QuickselectCostNS(n int) float64 {
	return m.QuickselectNS * float64(n)
}

// PackCostNS returns the charge for packing the given number of machine
// words.
func (m Model) PackCostNS(words int) float64 { return m.PackNS * float64(words) }
