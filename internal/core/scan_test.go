package core

// Tests for the deterministic sharded scan and the pipelined round
// sequence (StartScan / FinishPending / CommitScan). The load-bearing
// property is drain invariance: because CommitScan fixes the next scan's
// threshold before deferring the selection, draining the pending
// selection at ANY boundary — eagerly, lazily, or at random rounds —
// must leave the sampling stream byte-identical (DESIGN.md §2.6).

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"reservoir/internal/coll"
	"reservoir/internal/rng"
	"reservoir/internal/simnet"
	"reservoir/internal/workload"
	"reservoir/internal/workload/scenario"
)

// runSharded drives a p-PE distributed run and returns the collected
// sample plus the final per-PE thresholds. afterRound, if non-nil, runs
// SPMD after each round (it may issue collectives, e.g. FinishPending).
func runSharded(t *testing.T, p, rounds int, cfg Config, src workload.Source, afterRound func(pe *DistPE, round int)) ([]workload.Item, []float64) {
	t.Helper()
	tc := newTestCluster(t, p, cfg, false)
	for r := 0; r < rounds; r++ {
		tc.processRound(src, r)
		if afterRound != nil {
			r := r
			tc.cl.Parallel(func(pe *simnet.PE) {
				afterRound(tc.samplers[pe.ID()].(*DistPE), r)
			})
		}
	}
	sample := tc.collect()
	thresh := make([]float64, p)
	for i, s := range tc.samplers {
		thresh[i], _ = s.Threshold()
	}
	return sample, thresh
}

func sameStream(t *testing.T, label string, a, b []workload.Item, ta, tb []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: sample sizes differ: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: sample[%d] differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("%s: PE %d threshold differs: %v vs %v", label, i, ta[i], tb[i])
		}
	}
}

// TestPipelineDrainInvariance: at shards ∈ {1, 4}, a pipelined run with
// no early drains and pipelined runs with extra drains injected at
// assorted round boundaries all produce the byte-identical sample and
// thresholds. (A pipelined run is NOT compared against Pipeline=false:
// pipelining scans with a one-round-stale threshold by design, so it is
// a different — distributionally identical — stream, which is why
// Pipeline is part of the recorded stream identity.)
func TestPipelineDrainInvariance(t *testing.T) {
	const p, rounds, batch = 4, 8, 900
	for _, shards := range []int{1, 4} {
		for _, weighted := range []bool{true, false} {
			cfg := Config{K: 64, Weighted: weighted, Seed: 42, Shards: shards, Pipeline: true}
			src := workload.UniformSource{Seed: 7, BatchLen: batch, Lo: 0, Hi: 100}

			pipeSample, pipeTh := runSharded(t, p, rounds, cfg, src, nil)

			// Drain after rounds 0, 3, and 5 — plus the implicit drain
			// inside CollectSample.
			drainSample, drainTh := runSharded(t, p, rounds, cfg, src,
				func(pe *DistPE, round int) {
					if round == 0 || round == 3 || round == 5 {
						pe.FinishPending()
					}
				})

			// Drain after every round: the pipelined stream fully
			// serialized must still match the fully deferred one.
			eagerSample, eagerTh := runSharded(t, p, rounds, cfg, src,
				func(pe *DistPE, round int) { pe.FinishPending() })

			label := "pipelined-vs-drained"
			if !weighted {
				label += "-uniform"
			}
			sameStream(t, label, pipeSample, drainSample, pipeTh, drainTh)
			sameStream(t, label+"-eager", pipeSample, eagerSample, pipeTh, eagerTh)
			if len(pipeSample) != cfg.K {
				t.Fatalf("shards=%d: sample has %d items, want k=%d", shards, len(pipeSample), cfg.K)
			}
		}
	}
}

// TestShardCountChangesStream documents that Shards is part of the
// sampling stream's identity: different shard counts draw variates from
// different RNG substreams, so replays must use the recorded value.
func TestShardCountChangesStream(t *testing.T) {
	const p, rounds, batch = 4, 4, 1200
	src := workload.UniformSource{Seed: 3, BatchLen: batch, Lo: 0, Hi: 100}
	s1, _ := runSharded(t, p, rounds, Config{K: 48, Weighted: true, Seed: 5, Shards: 1}, src, nil)
	s4, _ := runSharded(t, p, rounds, Config{K: 48, Weighted: true, Seed: 5, Shards: 4}, src, nil)
	same := len(s1) == len(s4)
	if same {
		for i := range s1 {
			if s1[i] != s4[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("shards=1 and shards=4 produced identical samples; the shard substreams are not domain-separated")
	}
}

// TestShardedSnapshotRoundTrip: a pipelined sharded cluster snapshotted
// mid-run (after a drain) and restored into fresh PEs continues the
// byte-identical stream.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	const p, firstHalf, secondHalf, batch = 4, 3, 3, 700
	cfg := Config{K: 48, Weighted: true, Seed: 9, Shards: 4, Pipeline: true}
	src := workload.UniformSource{Seed: 11, BatchLen: batch, Lo: 0, Hi: 100}

	orig := newTestCluster(t, p, cfg, false)
	for r := 0; r < firstHalf; r++ {
		orig.processRound(src, r)
	}
	blobs := make([][]byte, p)
	var mu sync.Mutex
	orig.cl.Parallel(func(pe *simnet.PE) {
		d := orig.samplers[pe.ID()].(*DistPE)
		d.FinishPending() // snapshots are round boundaries
		blob, err := d.MarshalBinary()
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("PE %d snapshot: %v", pe.ID(), err)
			return
		}
		blobs[pe.ID()] = blob
	})
	if t.Failed() {
		t.Fatal("snapshot phase failed")
	}

	restored := newTestCluster(t, p, cfg, false)
	restored.cl.Parallel(func(pe *simnet.PE) {
		if err := restored.samplers[pe.ID()].(*DistPE).UnmarshalBinary(blobs[pe.ID()]); err != nil {
			t.Errorf("PE %d restore: %v", pe.ID(), err)
		}
	})
	if t.Failed() {
		t.Fatal("snapshot phase failed")
	}

	for r := firstHalf; r < firstHalf+secondHalf; r++ {
		orig.processRound(src, r)
		restored.processRound(src, r)
	}
	a, b := orig.collect(), restored.collect()
	ta := make([]float64, p)
	tb := make([]float64, p)
	for i := range ta {
		ta[i], _ = orig.samplers[i].Threshold()
		tb[i], _ = restored.samplers[i].Threshold()
	}
	sameStream(t, "snapshot-roundtrip", a, b, ta, tb)
}

// TestSnapshotRefusesPendingSelection: a snapshot taken while a
// pipelined selection is still deferred would not be a round boundary;
// MarshalBinary must reject it until FinishPending drains the round.
func TestSnapshotRefusesPendingSelection(t *testing.T) {
	const p = 2
	cfg := Config{K: 32, Weighted: true, Seed: 17, Shards: 2, Pipeline: true}
	src := workload.UniformSource{Seed: 19, BatchLen: 400, Lo: 0, Hi: 100}
	tc := newTestCluster(t, p, cfg, false)
	tc.processRound(src, 0)

	tc.cl.Parallel(func(pe *simnet.PE) {
		d := tc.samplers[pe.ID()].(*DistPE)
		if !d.Pending() {
			t.Errorf("PE %d: no pending selection after a pipelined round", pe.ID())
			return
		}
		if _, err := d.MarshalBinary(); err == nil {
			t.Errorf("PE %d: snapshot of an undrained pipelined round succeeded", pe.ID())
		} else if !strings.Contains(err.Error(), "FinishPending") {
			t.Errorf("PE %d: unhelpful snapshot error: %v", pe.ID(), err)
		}
		d.FinishPending()
		if _, err := d.MarshalBinary(); err != nil {
			t.Errorf("PE %d: snapshot after drain failed: %v", pe.ID(), err)
		}
	})
}

// TestSnapshotWithoutShardSectionRefused: a Shards: 1 snapshot with its
// shard section cut off has exactly the layout that the single-stream
// scan of earlier releases wrote for Shards: 0. Restoring it into a PE
// with Shards unset must fail instead of resuming on a different stream.
func TestSnapshotWithoutShardSectionRefused(t *testing.T) {
	const p = 2
	cfg := Config{K: 32, Weighted: true, Seed: 23, Shards: 1}
	src := workload.UniformSource{Seed: 29, BatchLen: 300, Lo: 0, Hi: 100}
	tc := newTestCluster(t, p, cfg, false)
	for r := 0; r < 3; r++ {
		tc.processRound(src, r)
	}
	st, err := rng.NewXoshiro256(1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// haveT byte, threshold bits, shard count, one length-prefixed state.
	section := 1 + 8 + 4 + 8 + len(st)

	unset := cfg
	unset.Shards = 0
	fresh := newTestCluster(t, p, unset, false)
	for i, s := range tc.samplers {
		blob, err := s.(*DistPE).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		cut := blob[:len(blob)-section]
		if binary.LittleEndian.Uint64(blob[len(cut)+13:]) != uint64(len(st)) {
			t.Fatalf("PE %d: shard section is not where expected", i)
		}
		d := fresh.samplers[i].(*DistPE)
		if err := d.UnmarshalBinary(cut); err == nil {
			t.Fatalf("PE %d: snapshot without a shard section decoded", i)
		}
		if err := d.UnmarshalBinary(blob); err != nil {
			t.Fatalf("PE %d: full snapshot does not decode: %v", i, err)
		}
	}
}

// TestScanZeroThreshold: the weighted skip scan admits nothing against a
// threshold of 0 and draws one infinite skip, not an Exp(0) panic.
func TestScanZeroThreshold(t *testing.T) {
	ws := make([]float64, 100)
	for i := range ws {
		ws[i] = float64(i + 1)
	}
	out, draws := scanShardWeighted(rng.NewXoshiro256(1), ws, 0, len(ws), 0, nil)
	if len(out) != 0 || draws != 1 {
		t.Errorf("%d candidates after %d draws, want none after 1", len(out), draws)
	}
}

// TestShardFillMatchesSerialFill checks that shards filling their own
// weight ranges scan exactly what a scan of the whole batch's serially
// filled weights does: the same candidates, keys and draw counts. The
// Zipf hot-key batch's shard ranges start at odd offsets.
func TestShardFillMatchesSerialFill(t *testing.T) {
	spec, _ := scenario.Preset("zipf_hot")
	src, err := spec.Source(5, 4003)
	if err != nil {
		t.Fatal(err)
	}
	cl := simnet.NewCluster(1, simnet.CostParams{})
	pe, err := NewDistPE(coll.New(cl.PE(0)), Config{K: 64, Weighted: true, Shards: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for round, thresh := range []float64{1e-3, 1e-2, 0.1} {
		b := src.NextBatch(0, round)
		n, S := b.Len(), len(pe.shardSrc)
		ws := make([]float64, n)
		workload.FillWeights(b, ws)
		streams := make([]rng.Xoshiro256, S)
		for s, str := range pe.shardSrc {
			streams[s] = *str
		}
		pe.scanThresh, pe.scanHaveT = thresh, true
		buf := pe.StartScan(b)
		for s := range streams {
			lo, hi := n*s/S, n*(s+1)/S
			want, draws := scanShardWeighted(&streams[s], ws, lo, hi, thresh, nil)
			if len(want) == 0 || len(buf.shards[s]) != len(want) || buf.draws[s] != draws {
				t.Fatalf("round %d shard %d: %d candidates, %d draws; serial fill gives %d, %d",
					round, s, len(buf.shards[s]), buf.draws[s], len(want), draws)
			}
			for i, c := range want {
				if buf.shards[s][i] != c {
					t.Fatalf("round %d shard %d candidate %d: %+v, serial fill gives %+v", round, s, i, buf.shards[s][i], c)
				}
			}
		}
	}
}

// BenchmarkStartScan measures one PE's weighted scan of a 50,000-item
// uniform batch in steady state, weight synthesis included, at one and
// four shards; each shard fills its own range of the weights. Run it at
// -cpu 1,2 to see the shards' fills and scans spread over cores.
func BenchmarkStartScan(b *testing.B) {
	const items = 50000
	src := workload.UniformSource{Seed: 1, BatchLen: items, Lo: 0, Hi: 100}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cl := simnet.NewCluster(1, simnet.CostParams{})
			pe, err := NewDistPE(coll.New(cl.PE(0)), Config{K: 256, Weighted: true, Shards: shards, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			// A committed threshold that admits about 16 items a batch
			// (mean weight 50), as after the first few rounds.
			pe.scanThresh, pe.scanHaveT = 16.0/(items*50), true
			b.ReportAllocs()
			round := 0
			for b.Loop() {
				pe.StartScan(src.NextBatch(0, round))
				round++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*items), "ns/item")
		})
	}
}

// plainScanWeighted is the weighted skip scan one item at a time, without
// the 32-item blocks of Sec 5: the reference that scanShardWeighted must
// match draw for draw, and the baseline of BenchmarkWeightedScan.
func plainScanWeighted(src *rng.Xoshiro256, ws []float64, lo, hi int, t float64, out []cand) ([]cand, int64) {
	var draws int64
	x := skipWeight(src, t)
	draws++
	for j := lo; j < hi; j++ {
		x -= ws[j]
		if x <= 0 {
			out = append(out, cand{int32(j), keyBelow(src, ws[j], t)})
			x = skipWeight(src, t)
			draws += 2
		}
	}
	return out, draws
}

// scanTestItems is the batch length the scan tests and benchmarks set
// their admission densities against.
const scanTestItems = 50_000

// scanTestWeights returns scanTestItems+7 weights of one law: "uniform"
// in (0, 100], "pareto" with shape 1.3, or the zipf_hot scenario's
// weights (its batches concatenated).
func scanTestWeights(tb testing.TB, law string, seed uint64) []float64 {
	tb.Helper()
	const n = scanTestItems + 7
	ws := make([]float64, n)
	switch law {
	case "uniform":
		workload.FillWeights(workload.UniformSource{Seed: seed, BatchLen: n, Lo: 0, Hi: 100}.NextBatch(0, 0), ws)
	case "pareto":
		workload.FillWeights(workload.ParetoSource{Seed: seed, BatchLen: n, Shape: 1.3}.NextBatch(0, 0), ws)
	case "zipf_hot":
		spec, _ := scenario.Preset("zipf_hot")
		src, err := spec.Source(seed, 4096)
		if err != nil {
			tb.Fatal(err)
		}
		for filled, round := 0, 0; filled < n; round++ {
			b := src.NextBatch(0, round)
			m := min(b.Len(), n-filled)
			workload.FillWeightsFrom(b, 0, ws[filled:filled+m])
			filled += m
		}
	default:
		tb.Fatalf("unknown weight law %q", law)
	}
	return ws
}

// scanTestThreshold returns the threshold at which a skip scan of the
// first scanTestItems weights admits about admit items.
func scanTestThreshold(ws []float64, admit float64) float64 {
	var total float64
	for _, w := range ws[:scanTestItems] {
		total += w
	}
	return admit / total
}

// TestBlockedScanMatchesPlain holds the blocked weighted skip scan equal
// to the plain one: the same candidates, keys, draw counts and final
// stream state, over three weight laws, three admission densities, two
// start offsets and lengths around the 32-item block. The two loops
// subtract a block's weight in one sum or item by item, so they could
// part only where a skip ends within rounding of a block boundary.
func TestBlockedScanMatchesPlain(t *testing.T) {
	for _, law := range []string{"uniform", "pareto", "zipf_hot"} {
		for seed := uint64(1); seed <= 10; seed++ {
			ws := scanTestWeights(t, law, seed)
			for _, admit := range []float64{16, 256, 4096} {
				th := scanTestThreshold(ws, admit)
				for _, lo := range []int{0, 7} {
					for _, n := range []int{0, 1, 31, 32, 33, 4097, scanTestItems} {
						streamSeed := rng.Mix64(seed<<20 ^ uint64(admit)<<8 ^ uint64(lo+n))
						blocked, plain := rng.NewXoshiro256(streamSeed), rng.NewXoshiro256(streamSeed)
						got, gotDraws := scanShardWeighted(blocked, ws, lo, lo+n, th, nil)
						want, wantDraws := plainScanWeighted(plain, ws, lo, lo+n, th, nil)
						name := fmt.Sprintf("%s seed %d admit %g lo %d n %d", law, seed, admit, lo, n)
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("%s: candidate %d is %+v (block offset %d), plain scan gives %+v (block offset %d)",
									name, i, got[i], (int(got[i].idx)-lo)%32, want[i], (int(want[i].idx)-lo)%32)
							}
						}
						if len(got) != len(want) || gotDraws != wantDraws || *blocked != *plain {
							t.Fatalf("%s: %d candidates after %d draws, plain scan gives %d after %d (streams equal: %v)",
								name, len(got), gotDraws, len(want), wantDraws, *blocked == *plain)
						}
					}
				}
			}
		}
	}
}

// BenchmarkWeightedScan measures the weighted skip scan alone over 50,000
// uniform weights already in memory, the blocked loop against the plain
// loop it replaced, at thresholds admitting about 16, 256 and 4096 items.
// ns/item is per weight scanned; run it at -cpu 1 and alternate runs to
// compare the loops on a shared host.
func BenchmarkWeightedScan(b *testing.B) {
	ws := scanTestWeights(b, "uniform", 1)[:scanTestItems]
	loops := []struct {
		name string
		scan func(*rng.Xoshiro256, []float64, int, int, float64, []cand) ([]cand, int64)
	}{
		{"blocked", scanShardWeighted},
		{"plain", plainScanWeighted},
	}
	for _, admit := range []float64{16, 256, 4096} {
		th := scanTestThreshold(ws, admit)
		for _, loop := range loops {
			b.Run(fmt.Sprintf("admit=%g/loop=%s", admit, loop.name), func(b *testing.B) {
				src := rng.NewXoshiro256(1)
				out := make([]cand, 0, 2*int(admit))
				b.ReportAllocs()
				for b.Loop() {
					out, _ = loop.scan(src, ws, 0, len(ws), th, out[:0])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ws)), "ns/item")
			})
		}
	}
}
