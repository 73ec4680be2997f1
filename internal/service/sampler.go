package service

import (
	"encoding"
	"fmt"

	"reservoir"
	"reservoir/internal/store"
)

// sampler is a run's sampler as its worker and the persistence layer
// drive it. newRun picks the adapter; the Run owns the round counter.
type sampler interface {
	// round applies one round: PE pe's batch is src.NextBatch(pe, round).
	round(src reservoir.Source, round int)
	// sample returns the current sample without communication.
	sample() []reservoir.Item
	// stats fills in the sampler's part of st.
	stats(st *Stats)
	// marshal returns the boundary slot's tag and blob.
	marshal() (tag byte, blob []byte, err error)
	// restore loads a boundary slot, refusing another kind's tag.
	restore(sn *store.Snapshot) error
}

// checkTag refuses a boundary slot whose tag is not want, the tag of the
// run's own sampler; kind names the run's kind.
func checkTag(tag, want byte, kind string) error {
	if tag < snapKindCluster || tag > snapKindSeqU {
		return fmt.Errorf("unknown snapshot kind %d", tag)
	}
	if tag != want {
		return fmt.Errorf("snapshot kind %d does not match run kind %s", tag, kind)
	}
	return nil
}

// batchSource serves one explicit round's per-PE batches as a Source.
type batchSource []reservoir.SliceBatch

func (b batchSource) NextBatch(pe, _ int) reservoir.Batch { return b[pe] }

// clusterSampler adapts a reservoir.Cluster: distributed or gather, fixed
// or variable sample size. cfg and opts rebuild it from a slot.
type clusterSampler struct {
	cl   *reservoir.Cluster
	cfg  reservoir.Config
	opts []reservoir.Option
}

// newClusterSampler translates a RunConfig into the library-level cluster
// configuration and builds the cluster.
func newClusterSampler(cfg RunConfig) (*clusterSampler, error) {
	c := &clusterSampler{cfg: reservoir.Config{
		K:              cfg.K,
		KMin:           cfg.KMin,
		KMax:           cfg.KMax,
		Weighted:       !cfg.Uniform,
		Strategy:       cfg.Strategy,
		Pivots:         cfg.Pivots,
		LocalThreshold: cfg.LocalThreshold,
		Shards:         cfg.Shards,
		Pipeline:       cfg.Pipeline,
		Seed:           cfg.Seed,
	}, opts: []reservoir.Option{reservoir.WithAlgorithm(cfg.Algorithm)}}
	if cfg.AlphaNS > 0 || cfg.BetaNS > 0 {
		c.opts = append(c.opts, reservoir.WithNetworkCost(cfg.AlphaNS, cfg.BetaNS))
	}
	var err error
	c.cl, err = reservoir.NewCluster(cfg.P, c.cfg, c.opts...)
	return c, err
}

func (c *clusterSampler) round(src reservoir.Source, _ int) { c.cl.ProcessRound(src) }

func (c *clusterSampler) sample() []reservoir.Item { return c.cl.SampleSnapshot() }

func (c *clusterSampler) stats(st *Stats) {
	st.SampleSize = c.cl.SampleSize()
	st.Threshold, st.HaveThreshold = c.cl.Threshold()
	n := c.cl.Counters()
	st.ItemsProcessed = n.ItemsProcessed
	st.Inserted = n.Inserted
	st.Selections = n.Selections
	st.SelectionDepth = n.SelectionRounds
	st.VirtualTimeNS = c.cl.VirtualTime()
	net := c.cl.NetworkStats()
	st.Network = &NetworkStats{Messages: net.Messages, Words: net.Words, Bytes: net.Bytes}
	t := c.cl.Timing()
	st.Timing = &TimingStats{
		ScanNS: t.ScanNS, SelectNS: t.SelectNS,
		ThresholdNS: t.ThresholdNS, GatherNS: t.GatherNS, TotalNS: t.TotalNS(),
	}
}

func (c *clusterSampler) marshal() (byte, []byte, error) {
	blob, err := c.cl.Snapshot()
	return snapKindCluster, blob, err
}

// restore replaces the cluster with one rebuilt from the slot, so its
// virtual clocks restart from zero (RestoreCluster).
func (c *clusterSampler) restore(sn *store.Snapshot) error {
	if err := checkTag(sn.Kind, snapKindCluster, KindCluster); err != nil {
		return err
	}
	cl, err := reservoir.RestoreCluster(c.cfg, sn.Blob, c.opts...)
	if err != nil {
		return err
	}
	if uint64(cl.Round()) != sn.Round {
		return fmt.Errorf("snapshot round %d, sampler state says %d", sn.Round, cl.Round())
	}
	c.cl = cl
	return nil
}

// streamSampler adapts the single-stream samplers (sequential weighted
// and sequential uniform). They share the batch, sample and codec
// methods and differ only in their stats and their slot tag.
type streamSampler struct {
	s interface {
		ProcessBatch(reservoir.Batch)
		Sample() []reservoir.Item
		encoding.BinaryMarshaler
		encoding.BinaryUnmarshaler
	}
	tag  byte
	fill func(st *Stats)
}

func (a *streamSampler) round(src reservoir.Source, round int) {
	a.s.ProcessBatch(src.NextBatch(0, round))
}

func (a *streamSampler) sample() []reservoir.Item { return a.s.Sample() }

func (a *streamSampler) stats(st *Stats) { a.fill(st) }

func (a *streamSampler) marshal() (byte, []byte, error) {
	blob, err := a.s.MarshalBinary()
	return a.tag, blob, err
}

func (a *streamSampler) restore(sn *store.Snapshot) error {
	if err := checkTag(sn.Kind, a.tag, KindSequential); err != nil {
		return err
	}
	return a.s.UnmarshalBinary(sn.Blob)
}
