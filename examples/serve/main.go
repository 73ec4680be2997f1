// reservoir-serve demo: starts the sampling service on a loopback port,
// creates two runs (a distributed cluster and the gather baseline),
// ingests mini-batch rounds from concurrent HTTP clients — synchronous
// ?wait=true rounds on one run, asynchronous 202-Accepted rounds on the
// other, whose stats it polls until the queue drains — then queries
// samples and stats. The HTTP counterpart of the quickstart example; see
// docs/API.md for the full API.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"reservoir/internal/service"
)

func main() {
	svc := service.New()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	hs := &http.Server{Handler: svc.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Println("serving on", base)

	// Two runs: the paper's distributed algorithm and the centralized
	// gathering baseline, same workload scale.
	ours := createRun(base, `{"kind":"cluster","p":8,"k":64,"seed":1,"local_threshold":true,"blocked_skip":true}`)
	gather := createRun(base, `{"kind":"cluster","p":8,"k":64,"seed":1,"algorithm":"gather"}`)
	fmt.Printf("created runs %s (ours) and %s (gather)\n", ours, gather)

	// Four concurrent clients per run, three synthetic rounds each:
	// 12 mini-batch rounds per run, 10k items per PE per round. The
	// first run takes synchronous rounds (?wait=true blocks until the
	// round has run and returns its stats); the second takes the default
	// asynchronous path (202 Accepted, then we wait for the bounded
	// ingest queue to drain).
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			post(base+"/v1/runs/"+ours+"/batches?wait=true",
				`{"synthetic":{"source":"uniform","batch_len":10000,"rounds":3}}`)
		}()
		go func() {
			defer wg.Done()
			post(base+"/v1/runs/"+gather+"/batches",
				`{"synthetic":{"source":"uniform","batch_len":10000,"rounds":3}}`)
		}()
	}
	wg.Wait()
	// The async run acknowledged 4x3 rounds; poll its stats until its
	// queue drains, printing each round count seen for the first time.
	seen := 0
	for {
		var st service.Stats
		getJSON(base+"/v1/runs/"+gather+"/stats", &st)
		if st.Rounds > seen {
			seen = st.Rounds
			fmt.Printf("  [stats %s] round %2d: sample=%d pending=%d msgs=%d\n",
				st.ID, st.Rounds, st.SampleSize, st.PendingRounds, st.Network.Messages)
		}
		if st.Rounds >= 12 && st.PendingRounds == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	for _, id := range []string{ours, gather} {
		var st service.Stats
		getJSON(base+"/v1/runs/"+id+"/stats", &st)
		var sr service.SampleResponse
		getJSON(base+"/v1/runs/"+id+"/sample", &sr)
		fmt.Printf("run %s: %d rounds, %d items seen, sample of %d, "+
			"virtual time %.2f ms, %d messages / %d words on the simulated network\n",
			id, st.Rounds, st.ItemsProcessed, sr.Count,
			st.VirtualTimeNS/1e6, st.Network.Messages, st.Network.Words)
	}

	svc.Close()
	sdCtx, sdCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer sdCancel()
	hs.Shutdown(sdCtx)
}

func createRun(base, cfg string) string {
	var resp service.CreateResponse
	body := post(base+"/v1/runs", cfg)
	if err := json.Unmarshal(body, &resp); err != nil {
		panic(err)
	}
	return resp.ID
}

func post(url, body string) []byte {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode >= 300 {
		panic(fmt.Sprintf("POST %s: %s: %s", url, resp.Status, buf.String()))
	}
	return buf.Bytes()
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		panic(err)
	}
}
