package service

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrentIngestAcrossRuns is the acceptance demo of the serving
// layer (run it under -race): several runs are created and each is fed
// >= 10 mini-batch rounds by multiple concurrent HTTP clients — some with
// explicit per-PE batches, some with server-side synthetic rounds — while
// poller goroutines hammer the stats and sample endpoints. Afterwards each
// run must hold a sample of exactly k items, report every ingested round,
// and show nonzero simulated network traffic; throughout, the rounds
// counter observed by any single client must advance monotonically.
func TestConcurrentIngestAcrossRuns(t *testing.T) {
	ts, _ := newTestServer(t)

	type runSpec struct {
		cfg     string
		p, k    int
		clients int
		rounds  int // rounds per client
	}
	specs := []runSpec{
		{cfg: `{"kind":"cluster","p":4,"k":32,"seed":21}`, p: 4, k: 32, clients: 4, rounds: 4},
		{cfg: `{"kind":"cluster","p":2,"k":16,"algorithm":"gather","seed":22}`, p: 2, k: 16, clients: 3, rounds: 4},
		{cfg: `{"kind":"cluster","p":3,"k":8,"strategy":"multi-pivot","seed":23}`, p: 3, k: 8, clients: 2, rounds: 6},
	}

	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = createRun(t, ts, sp.cfg).ID
	}

	var wg sync.WaitGroup
	var failed atomic.Bool
	for i, sp := range specs {
		base := ts.URL + "/v1/runs/" + ids[i]

		// Ingest clients: half post explicit batches, half synthetic.
		for c := 0; c < sp.clients; c++ {
			wg.Add(1)
			go func(i, c int, sp runSpec) {
				defer wg.Done()
				lastRounds := 0
				for round := 0; round < sp.rounds; round++ {
					var body string
					if c%2 == 0 {
						idBase := uint64(i)<<40 | uint64(c)<<20 | uint64(round)<<10
						body = makeBatches(sp.p, 64, idBase)
					} else {
						body = `{"synthetic":{"batch_len":64}}`
					}
					var st Stats
					code, raw := doJSON(t, "POST", base+"/batches?wait=true", body, &st)
					if code != http.StatusOK {
						t.Errorf("run %s client %d: ingest failed: %d %s", ids[i], c, code, raw)
						failed.Store(true)
						return
					}
					// Each response reflects a state at least one round
					// after this client's previous response.
					if st.Rounds <= lastRounds {
						t.Errorf("run %s client %d: rounds went %d -> %d", ids[i], c, lastRounds, st.Rounds)
						failed.Store(true)
						return
					}
					lastRounds = st.Rounds
				}
			}(i, c, sp)
		}

		// A stats poller and a sample poller per run, racing the ingest.
		wg.Add(2)
		go func(base string, k int) {
			defer wg.Done()
			last := 0
			for j := 0; j < 20; j++ {
				var st Stats
				if code, _ := doJSON(t, "GET", base+"/stats", "", &st); code != http.StatusOK {
					failed.Store(true)
					return
				}
				if st.Rounds < last {
					t.Errorf("stats poller: rounds went backwards: %d -> %d", last, st.Rounds)
					failed.Store(true)
					return
				}
				last = st.Rounds
				if st.Rounds > 0 && st.SampleSize > 0 && st.SampleSize != k {
					t.Errorf("stats poller: sample size %d, want 0 or %d", st.SampleSize, k)
					failed.Store(true)
					return
				}
			}
		}(base, sp.k)
		go func(base string, k int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				var sr SampleResponse
				if code, _ := doJSON(t, "GET", base+"/sample", "", &sr); code != http.StatusOK {
					failed.Store(true)
					return
				}
				if sr.Count > k {
					t.Errorf("sample poller: %d items, cap is %d", sr.Count, k)
					failed.Store(true)
					return
				}
			}
		}(base, sp.k)
	}
	wg.Wait()
	if failed.Load() {
		t.FailNow()
	}

	for i, sp := range specs {
		base := ts.URL + "/v1/runs/" + ids[i]
		wantRounds := sp.clients * sp.rounds
		if wantRounds < 10 {
			t.Fatalf("spec %d ingests only %d rounds; the acceptance demo needs >= 10", i, wantRounds)
		}

		var st Stats
		doJSON(t, "GET", base+"/stats", "", &st)
		if st.Rounds != wantRounds {
			t.Errorf("run %s: %d rounds recorded, want %d", ids[i], st.Rounds, wantRounds)
		}
		if st.ItemsProcessed != int64(wantRounds*sp.p*64) {
			t.Errorf("run %s: %d items processed, want %d", ids[i], st.ItemsProcessed, wantRounds*sp.p*64)
		}
		if st.SampleSize != sp.k {
			t.Errorf("run %s: sample size %d, want exactly k=%d", ids[i], st.SampleSize, sp.k)
		}
		if st.Network == nil || st.Network.Messages == 0 || st.Network.Words == 0 {
			t.Errorf("run %s: no simulated network traffic: %+v", ids[i], st.Network)
		}

		var sr SampleResponse
		doJSON(t, "GET", base+"/sample", "", &sr)
		if sr.Count != sp.k || len(sr.Items) != sp.k {
			t.Errorf("run %s: sample returned %d items, want exactly k=%d", ids[i], sr.Count, sp.k)
		}
		seen := make(map[uint64]bool, sr.Count)
		for _, it := range sr.Items {
			if seen[it.ID] {
				t.Errorf("run %s: duplicate item %d in sample", ids[i], it.ID)
			}
			seen[it.ID] = true
		}
	}
}

// TestConcurrentIngestAndDelete races ingest clients against run
// deletion; under -race this covers the worker and queue teardown while
// requests are still arriving.
func TestConcurrentIngestAndDelete(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":8,"seed":31}`)
	base := ts.URL + "/v1/runs/" + run.ID

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				doJSON(t, "POST", base+"/batches", `{"synthetic":{"batch_len":50}}`, nil)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Delete while ingest is in flight; 404s from clients racing
		// the delete are expected and fine.
		doJSON(t, "DELETE", base, "", nil)
	}()
	wg.Wait()

	if code, _ := doJSON(t, "GET", base+"/stats", "", nil); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", code)
	}
}
