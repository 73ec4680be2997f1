package reservoir_test

import (
	"fmt"

	"reservoir"
)

// ExampleNewWeighted draws a weighted sample from a single stream.
func ExampleNewWeighted() {
	s := reservoir.NewWeighted(3, 42)
	for i := uint64(0); i < 100_000; i++ {
		w := 1.0
		if i == 77 {
			w = 1e9 // one overwhelmingly heavy item
		}
		s.Process(reservoir.Item{W: w, ID: i})
	}
	for _, it := range s.Sample() {
		if it.ID == 77 {
			fmt.Println("heavy item sampled")
		}
	}
	// Output: heavy item sampled
}

// ExampleNewCluster runs the distributed sampler on a simulated cluster.
func ExampleNewCluster() {
	cfg := reservoir.Config{K: 50, Weighted: true, Seed: 1}
	cl, err := reservoir.NewCluster(4, cfg)
	if err != nil {
		panic(err)
	}
	src := reservoir.UniformSource{Seed: 2, BatchLen: 10_000, Lo: 0, Hi: 100}
	for round := 0; round < 3; round++ {
		cl.ProcessRound(src)
	}
	fmt.Println("sample size:", len(cl.Sample()))
	fmt.Println("rounds:", cl.Round())
	// Output:
	// sample size: 50
	// rounds: 3
}

// ExampleCluster_Snapshot persists and resumes a distributed sampler.
func ExampleCluster_Snapshot() {
	cfg := reservoir.Config{K: 20, Weighted: true, Seed: 7}
	cl, _ := reservoir.NewCluster(2, cfg)
	src := reservoir.UniformSource{Seed: 3, BatchLen: 1_000, Lo: 0, Hi: 10}
	cl.ProcessRound(src)

	blob, _ := cl.Snapshot()
	restored, _ := reservoir.RestoreCluster(cfg, blob)

	cl.ProcessRound(src)
	restored.ProcessRound(src)
	t1, _ := cl.Threshold()
	t2, _ := restored.Threshold()
	fmt.Println("identical thresholds:", t1 == t2)
	// Output: identical thresholds: true
}
