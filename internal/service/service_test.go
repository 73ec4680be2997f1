package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer starts the service behind httptest and tears it down with
// the test.
func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	svc := New()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return ts, svc
}

func doJSON(t *testing.T, method, url, body string, out any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 && len(bytes.TrimSpace(raw)) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, string(raw)
}

func createRun(t *testing.T, ts *httptest.Server, cfg string) CreateResponse {
	t.Helper()
	var resp CreateResponse
	code, raw := doJSON(t, "POST", ts.URL+"/v1/runs", cfg, &resp)
	if code != http.StatusCreated {
		t.Fatalf("create run: got %d: %s", code, raw)
	}
	return resp
}

// makeBatches builds p explicit batches of n items each with distinct IDs.
func makeBatches(p, n int, idBase uint64) string {
	var b strings.Builder
	b.WriteString(`{"batches":[`)
	id := idBase
	for pe := 0; pe < p; pe++ {
		if pe > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `{"w":%g,"id":%d}`, 0.5+float64(id%97), id)
			id++
		}
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.String()
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	var h HealthResponse
	code, raw := doJSON(t, "GET", ts.URL+"/healthz", "", &h)
	if code != http.StatusOK || h.Status != "ok" || h.Runs != 0 {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	createRun(t, ts, `{"k":4}`)
	doJSON(t, "GET", ts.URL+"/healthz", "", &h)
	if h.Runs != 1 {
		t.Fatalf("healthz runs = %d, want 1", h.Runs)
	}
}

func TestCreateRunDefaultsAndValidation(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := createRun(t, ts, `{"k":10}`)
	if resp.ID == "" || resp.Config.Kind != KindCluster || resp.Config.P != 4 {
		t.Fatalf("defaults not applied: %+v", resp)
	}

	bad := []string{
		`{`,                                     // malformed JSON
		`{"kind":"nope","k":4}`,                 // unknown kind
		`{}`,                                    // k missing
		`{"k":0}`,                               // k invalid
		`{"k":4,"p":-1}`,                        // p invalid
		`{"k":4,"p":99999}`,                     // p above cap
		`{"k":4,"algorithm":"zigzag"}`,          // unknown algorithm
		`{"k":4,"strategy":"sideways"}`,         // unknown strategy
		`{"k":4,"frobnicate":1}`,                // unknown field
		`{"k":4}{"k":8}`,                        // trailing data
		`{"kind":"cluster","k":4,"window":8}`,   // window on cluster
		`{"kind":"sequential","k":4,"p":3}`,     // multi-stream sequential
		`{"kind":"sequential","k":4,"k_max":8}`, // variable size, not cluster
		`{"kind":"windowed","k":4}`,             // window missing
		`{"kind":"windowed","k":4,"window":10,"chunk_len":4}`,               // not a multiple
		`{"kind":"windowed","k":4,"window":8,"chunk_len":4,"uniform":true}`, // windowed is weighted only
		`{"k":4,"checkpoint_rounds":64}`,                                    // removed option: every round is a boundary
		`{"k":4,"checkpoint_bytes":4096}`,                                   // removed option
	}
	for _, cfg := range bad {
		if code, raw := doJSON(t, "POST", ts.URL+"/v1/runs", cfg, nil); code != http.StatusBadRequest {
			t.Errorf("config %s: got %d (%s), want 400", cfg, code, raw)
		}
	}
}

func TestClusterRunLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	const p, k = 2, 8
	run := createRun(t, ts, fmt.Sprintf(`{"kind":"cluster","p":%d,"k":%d,"seed":3}`, p, k))
	base := ts.URL + "/v1/runs/" + run.ID

	var st Stats
	for round := 0; round < 3; round++ {
		code, raw := doJSON(t, "POST", base+"/batches?wait=true", makeBatches(p, 50, uint64(round*1000)), &st)
		if code != http.StatusOK {
			t.Fatalf("ingest round %d: %d %s", round, code, raw)
		}
		if st.Rounds != round+1 {
			t.Fatalf("after ingest %d: rounds = %d", round, st.Rounds)
		}
	}
	if st.SampleSize != k || !st.HaveThreshold || st.Threshold <= 0 {
		t.Fatalf("stats after 3 rounds: %+v", st)
	}
	if st.ItemsProcessed != int64(3*p*50) {
		t.Fatalf("items processed = %d, want %d", st.ItemsProcessed, 3*p*50)
	}
	if st.Network == nil || st.Network.Messages == 0 || st.Network.Words == 0 {
		t.Fatalf("no simulated traffic recorded: %+v", st.Network)
	}
	if st.VirtualTimeNS <= 0 || st.Timing == nil || st.Timing.TotalNS <= 0 {
		t.Fatalf("no virtual time recorded: %v %+v", st.VirtualTimeNS, st.Timing)
	}

	var sr SampleResponse
	if code, raw := doJSON(t, "GET", base+"/sample", "", &sr); code != http.StatusOK {
		t.Fatalf("sample: %d %s", code, raw)
	}
	if sr.Count != k || len(sr.Items) != k || sr.Rounds != 3 {
		t.Fatalf("sample: count=%d len=%d rounds=%d, want k=%d rounds=3", sr.Count, len(sr.Items), sr.Rounds, k)
	}
	seen := map[uint64]bool{}
	for _, it := range sr.Items {
		if it.W <= 0 || seen[it.ID] {
			t.Fatalf("bad sample item %+v (dup=%v)", it, seen[it.ID])
		}
		seen[it.ID] = true
	}

	var got Stats
	if code, _ := doJSON(t, "GET", base+"/stats", "", &got); code != http.StatusOK || got.ID != run.ID {
		t.Fatalf("stats endpoint: %d %+v", code, got)
	}

	var list ListResponse
	doJSON(t, "GET", ts.URL+"/v1/runs", "", &list)
	if len(list.Runs) != 1 || list.Runs[0].ID != run.ID {
		t.Fatalf("list: %+v", list)
	}

	if code, _ := doJSON(t, "DELETE", base, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := doJSON(t, "GET", base+"/stats", "", nil); code != http.StatusNotFound {
		t.Fatalf("stats after delete: %d, want 404", code)
	}
	if code, _ := doJSON(t, "DELETE", base, "", nil); code != http.StatusNotFound {
		t.Fatalf("double delete: %d, want 404", code)
	}
}

func TestIngestValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":4}`)
	base := ts.URL + "/v1/runs/" + run.ID + "/batches"

	bad := []string{
		``,                 // empty body
		`{}`,               // neither batches nor synthetic
		`{"batches":[[]]}`, // 1 batch for p=2
		`{"batches":[[{"w":0,"id":1}],[{"w":1,"id":2}]]}`,                    // nonpositive weight
		`{"batches":[[]],"synthetic":{"batch_len":10}}`,                      // both
		`{"synthetic":{"batch_len":0}}`,                                      // bad batch_len
		`{"synthetic":{"batch_len":10,"rounds":-2}}`,                         // bad rounds
		`{"synthetic":{"batch_len":10,"source":"quantum"}}`,                  // unknown source
		`{"synthetic":{"batch_len":10,"lo":-5,"hi":5}}`,                      // negative weights on a weighted run
		`{"synthetic":{"batch_len":10,"lo":200,"hi":100}}`,                   // hi <= lo
		`{"batches":[[{"w":1,"id":1,"extra":2}],[{"w":1,"id":2}]]}`,          // unknown field
		`{"batches":[[{"w":1,"id":1.5}],[{"w":1,"id":2}]]}`,                  // fractional id
		`{"batches":[[{"w":1,"id":-1}],[{"w":1,"id":2}]]}`,                   // negative id
		`{"batches":[[{"w":1,"id":18446744073709551616}],[{"w":1,"id":2}]]}`, // id over uint64
		`{"batches":[[{"w":"1","id":1}],[{"w":1,"id":2}]]}`,                  // string weight
		`{"batches":[[{"w":1e400,"id":1}],[{"w":1,"id":2}]]}`,                // weight over float64
		`{"batches":[[{"w":1,"id":1}],[{"w":1,"id":2}]]}{"batches":[[],[]]}`, // second object
		`{"batches":[[{"w":1,"id":1}],[{"w":1,"id":2}]],"extra":1}`,          // unknown top-level key
	}
	for _, body := range bad {
		if code, raw := doJSON(t, "POST", base, body, nil); code != http.StatusBadRequest {
			t.Errorf("ingest %s: got %d (%s), want 400", body, code, raw)
		}
	}

	if code, _ := doJSON(t, "POST", ts.URL+"/v1/runs/nope/batches", `{"batches":[[],[]]}`, nil); code != http.StatusNotFound {
		t.Errorf("ingest into unknown run: %d, want 404", code)
	}
	if code, _ := doJSON(t, "GET", ts.URL+"/v1/runs/nope/sample", "", nil); code != http.StatusNotFound {
		t.Errorf("sample of unknown run: %d, want 404", code)
	}
}

// TestIngestAcceptedBodies posts bodies that spell the same batches in
// other ways encoding/json accepts; each must leave the sample the
// canonical body leaves on an identical run.
func TestIngestAcceptedBodies(t *testing.T) {
	ts, _ := newTestServer(t)
	sample := func(cfg, body string) []WireItem {
		t.Helper()
		run := createRun(t, ts, cfg)
		base := ts.URL + "/v1/runs/" + run.ID
		if code, raw := doJSON(t, "POST", base+"/batches?wait=true", body, nil); code != http.StatusOK {
			t.Fatalf("ingest %s: got %d (%s), want 200", body, code, raw)
		}
		var sr SampleResponse
		if code, raw := doJSON(t, "GET", base+"/sample", "", &sr); code != http.StatusOK {
			t.Fatalf("sample: %d %s", code, raw)
		}
		return sr.Items
	}
	const weighted = `{"kind":"cluster","p":2,"k":2,"seed":7}`
	const uniform = `{"kind":"cluster","p":2,"k":2,"seed":7,"uniform":true}`
	const canonical = `{"batches":[[{"w":1.5,"id":1},{"w":2,"id":2},{"w":0.25,"id":3}],[{"w":4,"id":4},{"w":3,"id":5}]]}`
	cases := []struct {
		name, cfg, canonical, body string
	}{
		{"whitespace", weighted, canonical,
			" \r\n{ \"batches\" :\t[\n [ { \"w\" : 1.5 , \"id\" : 1 } ,{\"w\":2, \"id\":2},\n{\"w\":0.25,\"id\":3}],\n\t[{\"w\":4,\"id\":4},{\"w\":3,\"id\":5} ] ] }\n"},
		{"upper-case keys", weighted, canonical,
			`{"Batches":[[{"W":1.5,"ID":1},{"W":2,"Id":2},{"w":0.25,"iD":3}],[{"W":4,"ID":4},{"W":3,"ID":5}]]}`},
		{"escaped keys", weighted, canonical,
			escapeJSON(`{"%u0062atches":[[{"%u0077":1.5,"i%u0064":1},{"%u0057":2,"id":2},{"w":0.25,"%u0049%u0044":3}],[{"w":4,"id":4},{"w":3,"id":5}]]}`)},
		{"duplicate keys", weighted, canonical,
			`{"batches":[[{"w":9,"id":9}]],"batches":[[{"w":7,"id":1,"w":1.5},{"w":2,"id":2},{"w":0.25,"id":3}],[{"w":4,"id":4},{"id":5,"w":3}]]}`},
		{"null items", uniform,
			`{"batches":[[{"w":0,"id":0},{"w":1,"id":2},{"w":1,"id":3}],[{"w":1,"id":4},{"w":0,"id":0}]]}`,
			`{"batches":[[null,{"w":1,"id":2},{"w":1,"id":3,"w":null}],[{"w":1,"id":4},{"w":null,"id":null}]],"synthetic":null}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := sample(c.cfg, c.canonical)
			if got := sample(c.cfg, c.body); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("sample = %v, canonical body gives %v", got, want)
			}
		})
	}
}

func TestSyntheticSources(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, src := range []string{"uniform", "skewed", "pareto"} {
		t.Run(src, func(t *testing.T) {
			run := createRun(t, ts, `{"kind":"cluster","p":2,"k":16,"seed":5}`)
			var st Stats
			body := fmt.Sprintf(`{"synthetic":{"source":%q,"batch_len":500,"rounds":4}}`, src)
			code, raw := doJSON(t, "POST", ts.URL+"/v1/runs/"+run.ID+"/batches?wait=true", body, &st)
			if code != http.StatusOK {
				t.Fatalf("synthetic ingest: %d %s", code, raw)
			}
			if st.Rounds != 4 || st.ItemsProcessed != 2*500*4 || st.SampleSize != 16 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

func TestUniformAndGatherRuns(t *testing.T) {
	ts, _ := newTestServer(t)

	uni := createRun(t, ts, `{"kind":"cluster","p":2,"k":6,"uniform":true,"seed":9}`)
	var st Stats
	doJSON(t, "POST", ts.URL+"/v1/runs/"+uni.ID+"/batches?wait=true",
		`{"synthetic":{"batch_len":100,"rounds":2}}`, &st)
	if st.SampleSize != 6 {
		t.Fatalf("uniform cluster sample size = %d, want 6", st.SampleSize)
	}

	g := createRun(t, ts, `{"kind":"cluster","p":2,"k":6,"algorithm":"gather","seed":9}`)
	if g.Config.Algorithm.String() != "gather" {
		t.Fatalf("algorithm not round-tripped: %+v", g.Config)
	}
	doJSON(t, "POST", ts.URL+"/v1/runs/"+g.ID+"/batches?wait=true",
		`{"synthetic":{"batch_len":100,"rounds":2}}`, &st)
	if st.SampleSize != 6 || st.Network.Messages == 0 {
		t.Fatalf("gather run stats: %+v", st)
	}

	mp := createRun(t, ts, `{"kind":"cluster","p":4,"k":32,"strategy":"multi-pivot","pivots":8,"seed":2}`)
	doJSON(t, "POST", ts.URL+"/v1/runs/"+mp.ID+"/batches?wait=true",
		`{"synthetic":{"batch_len":1000,"rounds":3}}`, &st)
	if st.SampleSize != 32 || st.Selections == 0 {
		t.Fatalf("multi-pivot run stats: %+v", st)
	}
}

func TestVariableSizeRun(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k_min":8,"k_max":16,"seed":4}`)
	var st Stats
	doJSON(t, "POST", ts.URL+"/v1/runs/"+run.ID+"/batches?wait=true",
		`{"synthetic":{"batch_len":400,"rounds":5}}`, &st)
	if st.SampleSize < 8 || st.SampleSize > 16 {
		t.Fatalf("variable-size sample = %d, want within [8, 16]", st.SampleSize)
	}
}

func TestSequentialRuns(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, cfg := range []string{
		`{"kind":"sequential","k":5,"seed":11}`,
		`{"kind":"sequential","k":5,"uniform":true,"seed":11}`,
	} {
		run := createRun(t, ts, cfg)
		base := ts.URL + "/v1/runs/" + run.ID
		var st Stats
		code, raw := doJSON(t, "POST", base+"/batches?wait=true", makeBatches(1, 40, 0), &st)
		if code != http.StatusOK {
			t.Fatalf("sequential ingest: %d %s", code, raw)
		}
		if st.Rounds != 1 || st.SampleSize != 5 || st.ItemsProcessed != 40 {
			t.Fatalf("sequential stats: %+v", st)
		}
		var sr SampleResponse
		doJSON(t, "GET", base+"/sample", "", &sr)
		if sr.Count != 5 {
			t.Fatalf("sequential sample count = %d, want 5", sr.Count)
		}
	}
}

func TestWindowedRun(t *testing.T) {
	ts, _ := newTestServer(t)
	run := createRun(t, ts, `{"kind":"windowed","k":4,"window":32,"chunk_len":8,"seed":13}`)
	base := ts.URL + "/v1/runs/" + run.ID
	var st Stats
	doJSON(t, "POST", base+"/batches?wait=true", makeBatches(1, 3, 500), &st)
	if st.SampleSize != 3 {
		t.Fatalf("partially filled windowed sample size = %d, want 3", st.SampleSize)
	}
	doJSON(t, "POST", base+"/batches?wait=true", makeBatches(1, 100, 0), &st)
	if st.Rounds != 2 || st.SampleSize != 4 || st.ItemsProcessed != 103 {
		t.Fatalf("windowed stats: %+v", st)
	}
	var sr SampleResponse
	doJSON(t, "GET", base+"/sample", "", &sr)
	if sr.Count != 4 {
		t.Fatalf("windowed sample count = %d, want 4", sr.Count)
	}
	// All sampled items must fall inside the sliding window: with 100
	// items seen and a 32-item window at chunk granularity, nothing
	// older than ID 64 can survive.
	for _, it := range sr.Items {
		if it.ID < 100-32-8 {
			t.Fatalf("sampled item %d is outside the window", it.ID)
		}
	}
}

// TestRunLimit checks the cap on concurrently hosted runs.
func TestRunLimit(t *testing.T) {
	svc := New()
	defer svc.Close()
	for i := 0; i < maxRuns; i++ {
		if _, err := svc.createRun(RunConfig{Kind: KindSequential, K: 1}); err != nil {
			t.Fatalf("run %d rejected below the limit: %v", i, err)
		}
	}
	_, err := svc.createRun(RunConfig{Kind: KindSequential, K: 1})
	var api *apiError
	if !errors.As(err, &api) || api.code != http.StatusTooManyRequests {
		t.Fatalf("create beyond the limit: err = %v, want 429", err)
	}
}

// TestOversizedBody checks that an over-limit request body yields 413, not
// a generic 400.
func TestOversizedBody(t *testing.T) {
	ts, _ := newTestServer(t)
	huge := `{"k":4,"kind":"` + strings.Repeat("x", maxConfigBytes) + `"}`
	code, raw := doJSON(t, "POST", ts.URL+"/v1/runs", huge, nil)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized config: got %d (%.80s), want 413", code, raw)
	}
}

// TestSyntheticIngestCanceled checks that a canceled job context stops a
// multi-round synthetic ingest at a round boundary instead of running all
// requested rounds to completion.
func TestSyntheticIngestCanceled(t *testing.T) {
	svc := New()
	defer svc.Close()
	run, err := svc.createRun(RunConfig{Kind: KindCluster, P: 2, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	job, err := run.buildJob(IngestRequest{
		Synthetic: &SyntheticSpec{BatchLen: 10, Rounds: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job.ctx = ctx
	if err := run.enqueue(job); err != nil {
		t.Fatal(err)
	}
	res := <-job.done
	if res.err == nil {
		t.Fatal("ingest with canceled context succeeded")
	}
	if st := run.stats(); st.Rounds != 0 {
		t.Fatalf("canceled ingest still ran %d rounds", st.Rounds)
	}
}

// TestServerCloseStopsSyntheticIngest checks that Close cancels an
// in-flight multi-round ingest rather than letting it hold shutdown open.
func TestServerCloseStopsSyntheticIngest(t *testing.T) {
	svc := New()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp := struct{ ID string }{}
	doJSON(t, "POST", ts.URL+"/v1/runs", `{"kind":"cluster","p":2,"k":8,"seed":41}`, &resp)

	started := make(chan struct{})
	finished := make(chan int, 1)
	go func() {
		close(started)
		var st Stats
		doJSON(t, "POST", ts.URL+"/v1/runs/"+resp.ID+"/batches?wait=true",
			`{"synthetic":{"batch_len":2000,"rounds":10000}}`, &st)
		finished <- st.Rounds
	}()
	<-started
	// Let a few rounds run, then shut down mid-flight.
	for {
		var st Stats
		doJSON(t, "GET", ts.URL+"/v1/runs/"+resp.ID+"/stats", "", &st)
		if st.Rounds > 0 {
			break
		}
	}
	svc.Close()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("synthetic ingest did not stop on server Close")
	}
	var st Stats
	doJSON(t, "GET", ts.URL+"/v1/runs/"+resp.ID+"/stats", "", &st)
	if st.Rounds <= 0 || st.Rounds >= 10000 {
		t.Fatalf("rounds after canceled ingest = %d, want partial progress", st.Rounds)
	}
}

func TestServerCloseRejectsCreates(t *testing.T) {
	svc := New()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close()
	code, _ := doJSON(t, "POST", ts.URL+"/v1/runs", `{"k":4}`, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("create after Close: %d, want 503", code)
	}
}

// escapeJSON turns each '%' of s into a backslash, so JSON escapes read
// plainly in request bodies.
func escapeJSON(s string) string { return strings.ReplaceAll(s, "%", `\`) }
