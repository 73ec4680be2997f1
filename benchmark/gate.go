package main

import (
	"fmt"

	"reservoir"
	"reservoir/internal/service"
)

// gateInput is what the correctness gate checks, collected over one run.
type gateInput struct {
	warmSample  []service.WireItem // fetched at the end of the warm-up
	warmRounds  int                // rounds posted before warmSample
	finalSample []service.WireItem // fetched at the end of the window
	rounds      int                // rounds posted in all
	itemsServer int64              // items_processed the server reports
	itemsPosted int64              // items the writer posted
	failed      int64              // failed or non-2xx requests
}

// checkGate fails unless the run's outputs are correct: the warm-up sample
// is byte-identical to a simulator replay of the same rounds, the final
// sample has k items that each regenerate from the stream, the server
// counted exactly the posted items, and no request failed.
func checkGate(w workload, in *inputs, g gateInput) error {
	if g.failed > 0 {
		return fmt.Errorf("%d requests failed", g.failed)
	}
	want, err := replay(w, in, g.warmRounds)
	if err != nil {
		return err
	}
	if err := checkIdentical(g.warmSample, want); err != nil {
		return fmt.Errorf("warm-up sample after %d rounds: %w", g.warmRounds, err)
	}
	if len(g.finalSample) != w.cfg.K {
		return fmt.Errorf("final sample has %d items, want k=%d", len(g.finalSample), w.cfg.K)
	}
	if err := checkRegenerates(w, in, g.finalSample, g.rounds); err != nil {
		return fmt.Errorf("final sample: %w", err)
	}
	if g.itemsServer != g.itemsPosted {
		return fmt.Errorf("server processed %d items, the writer posted %d", g.itemsServer, g.itemsPosted)
	}
	return nil
}

// replay reruns the first rounds of w's stream on the in-process simulator
// (reservoir.NewCluster, same Config and Algorithm) and returns its sample:
// the comparison reservoir-verify -match makes against a live cluster.
// Reading a sample is stream-neutral, so the live run's reads do not
// change what the replay must produce.
func replay(w workload, in *inputs, rounds int) ([]reservoir.Item, error) {
	cl, err := reservoir.NewCluster(w.p, w.cfg, reservoir.WithAlgorithm(reservoir.Distributed))
	if err != nil {
		return nil, err
	}
	for r := 0; r < rounds; r++ {
		if in.batches != nil {
			if err := cl.ProcessBatches(in.batches[r%len(in.batches)]); err != nil {
				return nil, err
			}
		} else {
			cl.ProcessRound(in.src)
		}
	}
	if w.service {
		// The service publishes the communication-free snapshot.
		return cl.SampleSnapshot(), nil
	}
	return cl.Sample(), nil
}

func checkIdentical(got []service.WireItem, want []reservoir.Item) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items, the simulator replay has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].W != want[i].W || got[i].ID != want[i].ID {
			return fmt.Errorf("item %d is {w:%v id:%d}, the simulator replay has {w:%v id:%d}",
				i, got[i].W, got[i].ID, want[i].W, want[i].ID)
		}
	}
	return nil
}

// splitID undoes the ID layout every stream here uses (workload.idBase):
// bits 45 and up hold the PE, bits 26-44 the round, bits 0-25 the index
// within that PE's batch. On the service workload the round field names
// the body the item was posted in.
func splitID(id uint64) (pe, round, i int) {
	return int(id >> 45), int(id >> 26 & (1<<19 - 1)), int(id & (1<<26 - 1))
}

// checkRegenerates requires every sampled item to be an item of the posted
// stream: its ID names a PE, round and index, and regenerating that item
// gives the same weight.
func checkRegenerates(w workload, in *inputs, sample []service.WireItem, rounds int) error {
	for _, it := range sample {
		pe, round, i := splitID(it.ID)
		if pe >= w.p {
			return fmt.Errorf("item id %d names PE %d of %d", it.ID, pe, w.p)
		}
		var b reservoir.Batch
		switch {
		case in.batches != nil && round < len(in.batches):
			b = in.batches[round][pe]
		case in.batches == nil && round < rounds:
			b = in.src.NextBatch(pe, round)
		default:
			return fmt.Errorf("item id %d names round %d, which was never posted", it.ID, round)
		}
		if i >= b.Len() {
			return fmt.Errorf("item id %d names index %d of a %d-item batch", it.ID, i, b.Len())
		}
		if want := b.At(i); want.W != it.W || want.ID != it.ID {
			return fmt.Errorf("item {w:%v id:%d} regenerates as {w:%v id:%d}", it.W, it.ID, want.W, want.ID)
		}
	}
	return nil
}
