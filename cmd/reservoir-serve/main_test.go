package main

import (
	"encoding/json"

	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"reservoir/internal/service"
)

// TestKillNineRecovery is the acceptance test of the durability layer at
// the process level: a real reservoir-serve process is SIGKILLed during
// sustained async ingest, restarted on the same -data directory, and must
// come back with every run listed, correct config and round counters, and
// a working ingest path. (Sample-level equivalence with an uninterrupted
// twin is asserted by the service-layer suite; a kill -9 has no
// deterministic stopping point to compare against.)
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "reservoir-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dataDir := filepath.Join(tmp, "data")
	addr := freeAddr(t)
	base := "http://" + addr

	srv := startServer(t, bin, addr, dataDir)
	waitHealthy(t, base)

	// Two runs: a distributed cluster and a sequential sampler.
	clusterID := createRunHTTP(t, base, `{"kind":"cluster","p":2,"k":32,"seed":3}`)
	seqID := createRunHTTP(t, base, `{"kind":"sequential","k":16,"seed":4}`)

	// A durable baseline: rounds acknowledged synchronously before the
	// kill can never be lost.
	post(t, base+"/v1/runs/"+clusterID+"/batches?wait=true", `{"synthetic":{"batch_len":200,"rounds":6}}`, http.StatusOK)
	post(t, base+"/v1/runs/"+seqID+"/batches?wait=true", `{"synthetic":{"batch_len":200,"rounds":4}}`, http.StatusOK)

	// Sustained async ingest, then SIGKILL mid-stream.
	stop := make(chan struct{})
	go func() {
		body := `{"synthetic":{"batch_len":100,"rounds":2}}`
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(base+"/v1/runs/"+clusterID+"/batches", "application/json", strings.NewReader(body))
			if err != nil {
				return // server is gone: the kill landed
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	time.Sleep(150 * time.Millisecond) // let ingest pile up
	if err := srv.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill -9: %v", err)
	}
	srv.Wait()
	close(stop)

	// Restart on the same data directory.
	srv2 := startServer(t, bin, addr, dataDir)
	defer func() {
		srv2.Process.Signal(syscall.SIGTERM)
		srv2.Wait()
	}()
	waitHealthy(t, base)

	var list struct {
		Runs []service.Stats `json:"runs"`
	}
	getJSON(t, base+"/v1/runs", &list)
	if len(list.Runs) != 2 {
		t.Fatalf("recovered %d runs, want 2", len(list.Runs))
	}
	byID := map[string]service.Stats{}
	for _, st := range list.Runs {
		byID[st.ID] = st
	}
	cl, ok := byID[clusterID]
	if !ok {
		t.Fatalf("cluster run %s not recovered (%v)", clusterID, list.Runs)
	}
	// At least the 6 synchronously acknowledged rounds survive; the async
	// stream may add more (every recovered round was accepted pre-kill).
	if cl.Rounds < 6 {
		t.Errorf("cluster recovered at round %d, want >= 6", cl.Rounds)
	}
	if cl.Kind != "cluster" || cl.P != 2 || cl.SampleSize != 32 {
		t.Errorf("cluster config mangled: %+v", cl)
	}
	if cl.ItemsProcessed < int64(cl.Rounds)*2*100 {
		t.Errorf("cluster items_processed %d inconsistent with %d rounds", cl.ItemsProcessed, cl.Rounds)
	}
	sq, ok := byID[seqID]
	if !ok || sq.Rounds != 4 || sq.SampleSize != 16 || sq.ItemsProcessed != 800 {
		t.Errorf("sequential run mangled: %+v (ok=%v)", sq, ok)
	}

	// The recovered service keeps working: more rounds, monotone counters.
	post(t, base+"/v1/runs/"+clusterID+"/batches?wait=true", `{"synthetic":{"batch_len":100,"rounds":2}}`, http.StatusOK)
	var st service.Stats
	getJSON(t, base+"/v1/runs/"+clusterID+"/stats", &st)
	if st.Rounds != cl.Rounds+2 {
		t.Errorf("post-recovery ingest: rounds %d, want %d", st.Rounds, cl.Rounds+2)
	}

	// /healthz reports the store.
	var hr service.HealthResponse
	getJSON(t, base+"/healthz", &hr)
	if hr.Store == nil || hr.Store.Runs != 2 {
		t.Errorf("healthz store section: %+v", hr.Store)
	}
}

func startServer(t *testing.T, bin, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-fsync", "off", "-quiet")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start server: %v", err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

func createRunHTTP(t *testing.T, base, cfg string) string {
	t.Helper()
	raw := post(t, base+"/v1/runs", cfg, http.StatusCreated)
	var cr service.CreateResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatalf("create run: %v: %s", err, raw)
	}
	return cr.ID
}

func post(t *testing.T, url, body string, want int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != want {
		t.Fatalf("POST %s: %d (want %d): %s", url, resp.StatusCode, want, raw)
	}
	return raw
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, raw, err)
	}
}
