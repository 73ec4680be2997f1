package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// blockWorker installs a test hook that parks the run's worker at the
// start of every round until release is closed; entered signals each time
// the worker reaches the hook. Must be called before the first ingest.
func blockWorker(run *Run) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 64)
	release = make(chan struct{})
	run.roundHook = func() {
		entered <- struct{}{}
		<-release
	}
	return entered, release
}

func pollStats(t *testing.T, ts *httptest.Server, id string, ok func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st Stats
		code, raw := doJSON(t, "GET", ts.URL+"/v1/runs/"+id+"/stats", "", &st)
		if code != http.StatusOK {
			t.Fatalf("stats poll: %d %s", code, raw)
		}
		if ok(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAsyncIngestAccepted covers the default asynchronous mode: a valid
// ingest returns 202 with queue gauges, and the rounds land eventually.
func TestAsyncIngestAccepted(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":8,"seed":7}`)
	base := ts.URL + "/v1/runs/" + run.ID

	// Before any round the sample is an empty array, never null.
	if code, raw := doJSON(t, "GET", base+"/sample", "", nil); code != http.StatusOK || !strings.Contains(raw, `"items":[]`) {
		t.Fatalf("pristine sample: %d %s", code, raw)
	}

	resp, err := http.Post(base+"/batches", "application/json",
		strings.NewReader(`{"synthetic":{"batch_len":100,"rounds":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async ingest: %d, want 202", resp.StatusCode)
	}
	var acc IngestAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	if acc.ID != run.ID || acc.Rounds != 3 {
		t.Fatalf("accepted body: %+v", acc)
	}

	st := pollStats(t, ts, run.ID, func(st Stats) bool { return st.Rounds == 3 && st.PendingRounds == 0 })
	if st.ItemsProcessed != 2*100*3 || st.SampleSize != 8 {
		t.Fatalf("stats after async drain: %+v", st)
	}
	var sr SampleResponse
	doJSON(t, "GET", base+"/sample", "", &sr)
	if sr.Count != 8 || sr.Rounds != 3 {
		t.Fatalf("sample after async drain: %+v", sr)
	}
}

// TestWaitIngestRoundTrip covers the synchronous mode: ?wait=true blocks
// until the job has run and answers with the post-round stats.
func TestWaitIngestRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":8,"seed":8}`)
	base := ts.URL + "/v1/runs/" + run.ID

	var st Stats
	code, raw := doJSON(t, "POST", base+"/batches?wait=true", makeBatches(2, 50, 0), &st)
	if code != http.StatusOK {
		t.Fatalf("wait ingest: %d %s", code, raw)
	}
	if st.Rounds != 1 || st.ItemsProcessed != 100 {
		t.Fatalf("wait ingest stats: %+v", st)
	}
	// The answered state is immediately visible to snapshot readers.
	var got Stats
	doJSON(t, "GET", base+"/stats", "", &got)
	if got.Rounds != 1 {
		t.Fatalf("stats after wait ingest: %+v", got)
	}
}

// TestQueueBackpressure fills a depth-1 queue behind a deterministically
// parked worker and checks the 429 + Retry-After rejection, then releases
// the worker and checks every accepted round still lands.
func TestQueueBackpressure(t *testing.T) {
	svc := New()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { svc.Close(); ts.Close() })
	run, err := svc.createRun(RunConfig{Kind: KindCluster, P: 2, K: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := blockWorker(run)
	base := ts.URL + "/v1/runs/" + run.id

	post := func() *http.Response {
		resp, err := http.Post(base+"/batches", "application/json",
			strings.NewReader(`{"synthetic":{"batch_len":20}}`))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Job 1 is picked up by the worker, which parks in the round hook.
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d, want 202", resp.StatusCode)
	}
	<-entered

	// Job 2 occupies the single queue slot.
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d, want 202", resp.StatusCode)
	}

	// Job 3 must be rejected with explicit backpressure, and the
	// Retry-After hint must come from the run's observed drain rate: with
	// a 3s round EMA, 2 pending rounds, and 2 jobs absorbing them
	// (1 queued + 1 in flight), a slot should free in about one round.
	run.roundNS.Store(uint64(3 * time.Second))
	resp := post()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After = %q, want \"3\" (one 3s round)", ra)
	}

	// Readers are not blocked by the parked ingest pipeline.
	var st Stats
	if code, _ := doJSON(t, "GET", base+"/stats", "", &st); code != http.StatusOK {
		t.Fatalf("stats while worker parked: %d", code)
	}
	if st.QueueLen != 1 || st.QueueCap != 1 || st.PendingRounds != 2 {
		t.Fatalf("queue gauges while parked: %+v", st)
	}
	if code, _ := doJSON(t, "GET", base+"/sample", "", nil); code != http.StatusOK {
		t.Fatalf("sample while worker parked: %d", code)
	}

	// Release the worker: both accepted jobs run, the rejected one never
	// happened.
	close(release)
	pollStats(t, ts, run.id, func(st Stats) bool { return st.Rounds == 2 && st.PendingRounds == 0 })
}

// TestDeleteWithInFlightBatches deletes a run while one job is mid-round
// and more are queued: the in-flight waiter gets a round-boundary 503, the
// queued waiter gets 410 Gone, the worker exits, and the run 404s.
func TestDeleteWithInFlightBatches(t *testing.T) {
	svc := New()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { svc.Close(); ts.Close() })
	run, err := svc.createRun(RunConfig{Kind: KindCluster, P: 2, K: 4, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := blockWorker(run)
	base := ts.URL + "/v1/runs/" + run.id

	// Job A: multi-round synthetic, wait-mode; the worker parks inside it.
	typeA := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/batches?wait=true", "application/json",
			strings.NewReader(`{"synthetic":{"batch_len":20,"rounds":5}}`))
		if err != nil {
			typeA <- -1
			return
		}
		resp.Body.Close()
		typeA <- resp.StatusCode
	}()
	<-entered

	// Job B: queued async; job C: queued wait-mode.
	respB, err := http.Post(base+"/batches", "application/json",
		strings.NewReader(`{"synthetic":{"batch_len":20}}`))
	if err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: %d, want 202", respB.StatusCode)
	}
	typeC := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/batches?wait=true", "application/json",
			strings.NewReader(makeBatches(2, 10, 0)))
		if err != nil {
			typeC <- -1
			return
		}
		resp.Body.Close()
		typeC <- resp.StatusCode
	}()
	// Wait until job C is actually on the queue so the drain sees it.
	pollStats(t, ts, run.id, func(st Stats) bool { return st.QueueLen == 2 })

	// Delete mid-flight, then unpark the worker.
	if code, _ := doJSON(t, "DELETE", base, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", code)
	}
	close(release)

	// Job A stops at the next round boundary with 503; job C is drained
	// with 410 Gone.
	if code := <-typeA; code != http.StatusServiceUnavailable {
		t.Fatalf("in-flight waiter got %d, want 503", code)
	}
	if code := <-typeC; code != http.StatusGone {
		t.Fatalf("queued waiter got %d, want 410", code)
	}

	select {
	case <-run.workerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after delete")
	}
	if code, _ := doJSON(t, "GET", base+"/stats", "", nil); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", code)
	}
	// Ingest after deletion: the run is gone from the store entirely.
	if code, _ := doJSON(t, "POST", base+"/batches", `{"synthetic":{"batch_len":5}}`, nil); code != http.StatusNotFound {
		t.Fatalf("ingest after delete: %d, want 404", code)
	}
}

// TestQueueDepthValidation rejects out-of-range queue depths.
func TestQueueDepthValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, cfg := range []string{
		fmt.Sprintf(`{"k":4,"queue_depth":%d}`, maxQueueDepth+1),
		`{"k":4,"queue_depth":-1}`,
	} {
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/runs", cfg, nil); code != http.StatusBadRequest {
			t.Errorf("config %s: got %d (%s), want 400", cfg, code, raw)
		}
	}
	resp := createRun(t, ts, `{"k":4,"queue_depth":2}`)
	if resp.Config.QueueDepth != 2 {
		t.Fatalf("queue_depth not echoed: %+v", resp.Config)
	}
}

// TestRetryAfterDerivation pins the drain-rate arithmetic behind the 429
// Retry-After hint: (pending rounds / absorbing jobs) × round EMA,
// rounded up to whole seconds and clamped to [1, 60]. The run is built
// but never started, so no worker drains the job the test queues.
func TestRetryAfterDerivation(t *testing.T) {
	run, err := newRun("r1", RunConfig{Kind: KindCluster, P: 2, K: 4, QueueDepth: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		ema     time.Duration
		pending int64
		want    int
	}{
		{"no completed round yet", 0, 5, 1},
		{"one pending round at 2s", 2 * time.Second, 1, 2},
		{"ten pending rounds at 500ms", 500 * time.Millisecond, 10, 5},
		{"sub-second clamps up to 1", time.Millisecond, 1, 1},
		{"pathological round clamps to 60", 30 * time.Second, 10, 60},
	}
	for _, tc := range cases {
		run.roundNS.Store(uint64(tc.ema))
		run.pending.Store(tc.pending)
		if got := run.retryAfterSeconds(); got != tc.want {
			t.Errorf("%s: retryAfterSeconds() = %d, want %d", tc.name, got, tc.want)
		}
	}
	// A queued job shares the drain: the same backlog spread over more
	// jobs promises a sooner slot.
	run.roundNS.Store(uint64(4 * time.Second))
	run.pending.Store(4)
	run.queue <- &ingestJob{rounds: 1, done: make(chan ingestResult, 1)}
	// 4 pending rounds / 2 jobs = 2 rounds × 4s.
	if got := run.retryAfterSeconds(); got != 8 {
		t.Errorf("with a queued job: retryAfterSeconds() = %d, want 8", got)
	}
}
