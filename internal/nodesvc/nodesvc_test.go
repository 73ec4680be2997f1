package nodesvc

import (
	"bytes"
	"encoding/gob"
	"encoding/json"

	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"reservoir"
	"reservoir/internal/service"
	"reservoir/internal/transport"
	"reservoir/internal/transport/tcpnet"
	"reservoir/internal/workload/scenario"
)

// startCluster brings up a p-node loopback cluster and returns the root's
// control base URL plus a wait function that blocks until every node's
// Run has returned, failing the test on any error.
func startCluster(t *testing.T, p int, cfg reservoir.Config, algo reservoir.Algorithm) (string, func()) {
	t.Helper()
	base, _, wait := startClusterServers(t, p, cfg, algo)
	return base, wait
}

// startClusterServers is startCluster, also exposing the rank-indexed
// server handles (the metrics tests scrape non-root ops handlers).
func startClusterServers(t *testing.T, p int, cfg reservoir.Config, algo reservoir.Algorithm) (string, []*Server, func()) {
	t.Helper()
	ts, err := tcpnet.Loopback(p)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, p)
	srvs := make([]*Server, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		opts := Options{Conn: ts[i], Config: cfg, Algorithm: algo}
		if i == 0 {
			opts.Listener = ln
		}
		srv, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = srv.Run()
		}(i)
	}
	base := "http://" + ln.Addr().String()
	wait := func() {
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("cluster did not shut down within 30s")
		}
		for rank, err := range errs {
			if err != nil {
				t.Errorf("rank %d: %v", rank, err)
			}
		}
		for _, tr := range ts {
			tr.Close()
		}
	}
	return base, srvs, wait
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, data)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func TestClusterEndToEndMatchesSimnet(t *testing.T) {
	const (
		p      = 4
		k      = 96
		rounds = 5
		batch  = 700
		seed   = 1234
	)
	cfg := reservoir.Config{K: k, Weighted: true, Seed: seed}
	base, wait := startCluster(t, p, cfg, reservoir.Distributed)

	spec := service.SyntheticSpec{BatchLen: batch, Rounds: rounds}
	resp, data := postJSON(t, base+"/v1/cluster/rounds", map[string]any{"synthetic": spec})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rounds: %s: %s", resp.Status, data)
	}
	var st Stats
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != rounds || st.SampleSize != k {
		t.Fatalf("stats after ingest = %+v, want rounds=%d sample_size=%d", st, rounds, k)
	}
	if st.ItemsProcessed != int64(p*rounds*batch) {
		t.Fatalf("items_processed = %d, want %d", st.ItemsProcessed, p*rounds*batch)
	}
	if st.Network.Messages == 0 || st.Network.Bytes == 0 {
		t.Fatalf("cluster network stats empty: %+v", st.Network)
	}

	var sr SampleResponse
	getJSON(t, base+"/v1/cluster/sample", &sr)
	if sr.Size != k || len(sr.Items) != k {
		t.Fatalf("sample size = %d/%d, want %d", sr.Size, len(sr.Items), k)
	}

	// The multi-process cluster must reproduce the simulated cluster
	// byte for byte: same config, same synthetic stream, same sample.
	cl, err := reservoir.NewCluster(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.BuildSource(service.RunConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		cl.ProcessRound(src)
	}
	want := cl.Sample()
	if len(want) != len(sr.Items) {
		t.Fatalf("simnet sample has %d items, cluster returned %d", len(want), len(sr.Items))
	}
	for i := range want {
		if want[i].W != sr.Items[i].W || want[i].ID != sr.Items[i].ID {
			t.Fatalf("sample[%d]: simnet %+v vs cluster %+v", i, want[i], sr.Items[i])
		}
	}

	// Stats endpoint is non-collective and must agree with the last round.
	var st2 Stats
	getJSON(t, base+"/v1/cluster/stats", &st2)
	if st2.Rounds != rounds || st2.SampleSize != k {
		t.Fatalf("cached stats = %+v", st2)
	}

	resp, data = postJSON(t, base+"/v1/cluster/shutdown", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: %s: %s", resp.Status, data)
	}
	wait()
}

func TestClusterGatherAlgorithm(t *testing.T) {
	cfg := reservoir.Config{K: 32, Weighted: true, Seed: 77}
	base, wait := startCluster(t, 3, cfg, reservoir.CentralizedGather)
	resp, data := postJSON(t, base+"/v1/cluster/rounds",
		map[string]any{"synthetic": service.SyntheticSpec{BatchLen: 300, Rounds: 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rounds: %s: %s", resp.Status, data)
	}
	var sr SampleResponse
	getJSON(t, base+"/v1/cluster/sample", &sr)
	if sr.Size != 32 {
		t.Fatalf("gather sample size = %d, want 32", sr.Size)
	}
	resp, _ = postJSON(t, base+"/v1/cluster/shutdown", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: %s", resp.Status)
	}
	wait()
}

func TestBadRequestsDoNotWedgeTheCluster(t *testing.T) {
	cfg := reservoir.Config{K: 16, Weighted: true, Seed: 5}
	base, wait := startCluster(t, 2, cfg, reservoir.Distributed)

	for _, tc := range []struct {
		name string
		body string
	}{
		{"no synthetic", `{}`},
		{"bad json", `{"synthetic":`},
		{"zero batch", `{"synthetic":{"batch_len":0}}`},
		{"bad source", `{"synthetic":{"batch_len":10,"source":"nope"}}`},
		{"bad range", `{"synthetic":{"batch_len":10,"lo":5,"hi":1}}`},
	} {
		resp, err := http.Post(base+"/v1/cluster/rounds", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// The cluster still works after the rejected requests.
	resp, data := postJSON(t, base+"/v1/cluster/rounds",
		map[string]any{"synthetic": service.SyntheticSpec{BatchLen: 100, Rounds: 2}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rounds after rejects: %s: %s", resp.Status, data)
	}
	resp, _ = postJSON(t, base+"/v1/cluster/shutdown", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: %s", resp.Status)
	}
	wait()

	// Post-shutdown requests fail fast instead of hanging.
	resp2, err := http.Post(base+"/v1/cluster/rounds", "application/json",
		bytes.NewReader([]byte(`{"synthetic":{"batch_len":10}}`)))
	if err == nil {
		io.Copy(io.Discard, resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode == http.StatusOK {
			t.Fatal("rounds succeeded after shutdown")
		}
	}
}

func TestHealthz(t *testing.T) {
	cfg := reservoir.Config{K: 8, Weighted: true, Seed: 3}
	base, wait := startCluster(t, 2, cfg, reservoir.Distributed)
	var h map[string]any
	getJSON(t, base+"/healthz", &h)
	if h["status"] != "ok" || h["mode"] != "cluster-node" || h["p"] != float64(2) {
		t.Fatalf("healthz = %v", h)
	}
	resp, _ := postJSON(t, base+"/v1/cluster/shutdown", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shutdown: %s", resp.Status)
	}
	wait()
}

// The per-round command broadcast has its own wire codec, which must
// round-trip every spec shape — including a composed scenario, which
// travels as JSON — and reject truncated bodies like every other format.
func TestCommandWireRoundTrip(t *testing.T) {
	cases := []command{
		{},
		{Op: opStats},
		{Op: opRounds, Spec: service.SyntheticSpec{
			Source: "pareto", BatchLen: 50000, Rounds: 3, Seed: 424242, Shape: 1.5,
		}},
		{Op: opRounds, DeferStats: true, Spec: service.SyntheticSpec{
			Source: "pareto", BatchLen: 50000, Rounds: 1, Seed: 7, Shape: 2,
		}},
		{Op: opRounds, Spec: service.SyntheticSpec{
			BatchLen: 1000,
			Scenario: &scenario.Spec{Name: "pareto_burst", Law: "pareto", Alpha: 1.5},
		}},
	}
	for _, want := range cases {
		enc := transport.AppendPayload(nil, want)
		if enc[0] != transport.WireIDCommand {
			t.Fatalf("command %+v encoded under wire ID 0x%02x", want, enc[0])
		}
		got, err := transport.DecodePayload(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		gc, ok := got.(command)
		if !ok {
			t.Fatalf("decoded %T, want command", got)
		}
		if gc.Op != want.Op || gc.DeferStats != want.DeferStats || !reflect.DeepEqual(gc.Spec, want.Spec) {
			t.Fatalf("round trip changed value:\n got %+v\nwant %+v", gc, want)
		}
		for cut := 1; cut < len(enc); cut++ {
			if _, err := transport.DecodePayload(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
	}
}

// The resync control plane has its own wire codec. Property: the codec
// round-trips every field combination bit-exactly, agrees with
// encoding/gob (the reference codec) on the value, and rejects every
// truncation.
func TestResyncMsgWireRoundTrip(t *testing.T) {
	src := rand.New(rand.NewSource(7))
	cases := []resyncMsg{
		{},
		{Kind: kindFault, Epoch: 3, Round: 41, Lo: 38, Rejoin: true},
		{Kind: kindPrepare, Attempt: 9},
		{Kind: kindReport, Attempt: 9, Epoch: 2, Round: 40, Lo: 12},
		{Kind: kindCommit, Attempt: 9, Epoch: 3, Round: 39},
		{Kind: kindReady, Attempt: 9},
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, resyncMsg{
			Kind:    byte(1 + src.Intn(5)),
			Attempt: src.Uint64(),
			Epoch:   src.Uint64(),
			Round:   src.Uint64(),
			Lo:      src.Uint64(),
			Rejoin:  src.Intn(2) == 1,
		})
	}
	for _, want := range cases {
		enc := transport.AppendPayload(nil, want)
		if enc[0] != transport.WireIDResyncMsg {
			t.Fatalf("resyncMsg %+v encoded under wire ID 0x%02x", want, enc[0])
		}
		got, err := transport.DecodePayload(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if gm, ok := got.(resyncMsg); !ok || gm != want {
			t.Fatalf("round trip changed value: got %+v want %+v", got, want)
		}
		// gob must agree on the value (a field dropped by the wire codec
		// would diverge).
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(want); err != nil {
			t.Fatal(err)
		}
		var viaGob resyncMsg
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatal(err)
		}
		if viaGob != got.(resyncMsg) {
			t.Fatalf("wire and gob disagree: wire %+v gob %+v", got, viaGob)
		}
		for cut := 1; cut < len(enc); cut++ {
			if _, err := transport.DecodePayload(enc[:cut]); err == nil {
				t.Fatalf("truncation to %d of %d bytes decoded", cut, len(enc))
			}
		}
	}
}

// TestStatsNonFiniteThreshold: a +Inf threshold, which subnormal weights
// produce, encodes as the string "+Inf" and decodes back; the other
// fields encode as encoding/json encodes them.
func TestStatsNonFiniteThreshold(t *testing.T) {
	in := Stats{Mode: "cluster-node", P: 2, Algorithm: reservoir.CentralizedGather, Threshold: math.Inf(1),
		HaveThreshold: true, WallNS: 12.5, Network: NetworkStats{Messages: 3}}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"threshold":"+Inf","have_threshold":true`)) {
		t.Fatalf("encoded %s", b)
	}
	var out Stats
	if err := json.Unmarshal(b, &out); err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v (%v) from %s", out, err, b)
	}
}
