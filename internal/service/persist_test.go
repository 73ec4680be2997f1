package service

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"reservoir/internal/store"
)

// newPersistentServer opens a store in dir and serves on top of it,
// recovering any persisted runs. Nothing is registered for cleanup: tests
// that simulate a crash simply abandon the server without closing it.
func newPersistentServer(t *testing.T, dir string) (*httptest.Server, *Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(WithStore(st))
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	return httptest.NewServer(svc.Handler()), svc, st
}

func getSampleIDs(t *testing.T, ts *httptest.Server, id string) []uint64 {
	t.Helper()
	var sr SampleResponse
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/runs/"+id+"/sample", "", &sr); code != http.StatusOK {
		t.Fatalf("sample %s: %d %s", id, code, raw)
	}
	ids := make([]uint64, len(sr.Items))
	for i, it := range sr.Items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func getStats(t *testing.T, ts *httptest.Server, id string) Stats {
	t.Helper()
	var st Stats
	if code, raw := doJSON(t, "GET", ts.URL+"/v1/runs/"+id+"/stats", "", &st); code != http.StatusOK {
		t.Fatalf("stats %s: %d %s", id, code, raw)
	}
	return st
}

func ingestWait(t *testing.T, ts *httptest.Server, id, body string) {
	t.Helper()
	if code, raw := doJSON(t, "POST", ts.URL+"/v1/runs/"+id+"/batches?wait=true", body, nil); code != http.StatusOK {
		t.Fatalf("ingest %s: %d %s", id, code, raw)
	}
}

// equalIDs compares two sorted ID slices.
func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// persistedRunKinds is the recovery test matrix: every snapshot tag and
// every cluster mode the service runs — distributed weighted, uniform,
// variable-size, random-dist selection, sharded and pipelined, the gather
// baseline and both sequential samplers.
var persistedRunKinds = []struct {
	name string
	cfg  string
	p    int
}{
	{"cluster", `{"kind":"cluster","p":3,"k":48,"seed":11}`, 3},
	{"uniform-cluster", `{"kind":"cluster","p":3,"k":40,"seed":15,"uniform":true}`, 3},
	{"variable", `{"kind":"cluster","p":3,"k_min":20,"k_max":60,"seed":16}`, 3},
	{"random-dist", `{"kind":"cluster","p":3,"k":32,"seed":17,"strategy":"random-dist"}`, 3},
	{"pipelined", `{"kind":"cluster","p":2,"k":32,"seed":18,"shards":4,"pipeline":true}`, 2},
	{"gather", `{"kind":"cluster","p":2,"k":32,"seed":12,"algorithm":"gather"}`, 2},
	{"sequential", `{"kind":"sequential","k":24,"seed":13}`, 1},
	{"sequential-uniform", `{"kind":"sequential","k":24,"seed":19,"uniform":true}`, 1},
}

// driveSchedule pushes an identical, deterministic ingest schedule into a
// run: explicit rounds interleaved with synthetic multi-round jobs.
func driveSchedule(t *testing.T, ts *httptest.Server, id string, p int, phase int) {
	t.Helper()
	base := uint64(phase*100_000 + 1)
	for round := 0; round < 3; round++ {
		ingestWait(t, ts, id, makeBatches(p, 40, base+uint64(round)*1000))
	}
	ingestWait(t, ts, id, fmt.Sprintf(`{"synthetic":{"batch_len":150,"rounds":4,"seed":%d}}`, 77+phase))
	ingestWait(t, ts, id, makeBatches(p, 25, base+50_000))
}

// TestCrashRecoveryEquivalence is the service-layer analogue of
// snapshot_test.go: ingest into persisted runs, hard-stop the service (no
// graceful shutdown), reopen the store, and require every recovered run to
// match an uninterrupted twin — same sample IDs, same round counters and
// stats — and to *continue* identically. Recovery restores each run's
// newest boundary and writes (replays) nothing.
func TestCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	crashTS, crashSvc, crashStore := newPersistentServer(t, dir)
	// The crash is simulated by abandoning this server mid-flight, which
	// orphans its ingest workers. They must still be reaped before the
	// binary exits (TestMain's leak guard): close the abandoned server at
	// cleanup time — after every recovery assertion has run against the
	// disk state the "crash" left behind.
	t.Cleanup(crashSvc.Close)
	twinTS, _ := newTestServer(t) // in-memory twin, never interrupted

	ids := make(map[string]string) // kind -> run id (same on both servers)
	for _, k := range persistedRunKinds {
		cr := createRun(t, crashTS, k.cfg)
		tw := createRun(t, twinTS, k.cfg)
		if cr.ID != tw.ID {
			t.Fatalf("id mismatch: %s vs %s", cr.ID, tw.ID)
		}
		ids[k.name] = cr.ID
	}
	for _, k := range persistedRunKinds {
		driveSchedule(t, crashTS, ids[k.name], k.p, 0)
		driveSchedule(t, twinTS, ids[k.name], k.p, 0)
	}

	// Hard stop: abandon the first server entirely — no Server.Close,
	// worker goroutines simply orphaned, exactly the on-disk state a
	// kill -9 leaves behind (all writes that the OS already has; fsync
	// policy only matters for power loss). Abandon releases the store's
	// flock the way process death would.
	crashTS.Close()
	crashStore.Abandon()

	recTS, recSvc, recStore := newPersistentServer(t, dir)
	t.Cleanup(func() {
		recSvc.Close()
		recStore.Close()
		recTS.Close()
	})

	var list ListResponse
	if code, raw := doJSON(t, "GET", recTS.URL+"/v1/runs", "", &list); code != http.StatusOK || len(list.Runs) != len(persistedRunKinds) {
		t.Fatalf("recovered run list: %d %s", code, raw)
	}
	if n := recStore.Status().Checkpoints; n != 0 {
		t.Fatalf("recovery wrote %d boundaries; it should only restore", n)
	}

	for _, k := range persistedRunKinds {
		id := ids[k.name]
		rst, tst := getStats(t, recTS, id), getStats(t, twinTS, id)
		if rst.Rounds != tst.Rounds || rst.ItemsProcessed != tst.ItemsProcessed ||
			rst.SampleSize != tst.SampleSize || rst.Threshold != tst.Threshold ||
			rst.HaveThreshold != tst.HaveThreshold || rst.Inserted != tst.Inserted {
			t.Errorf("%s: recovered stats %+v != twin %+v", k.name, rst, tst)
		}
		if got, want := getSampleIDs(t, recTS, id), getSampleIDs(t, twinTS, id); !equalIDs(got, want) {
			t.Errorf("%s: recovered sample differs from twin (%d vs %d items)", k.name, len(got), len(want))
		}
	}

	// The recovered PRNG state must continue the same stream: more rounds
	// on both servers keep the samples identical.
	for _, k := range persistedRunKinds {
		driveSchedule(t, recTS, ids[k.name], k.p, 1)
		driveSchedule(t, twinTS, ids[k.name], k.p, 1)
	}
	for _, k := range persistedRunKinds {
		id := ids[k.name]
		if got, want := getSampleIDs(t, recTS, id), getSampleIDs(t, twinTS, id); !equalIDs(got, want) {
			t.Errorf("%s: post-recovery ingest diverges from twin", k.name)
		}
		if rst, tst := getStats(t, recTS, id), getStats(t, twinTS, id); rst.Rounds != tst.Rounds || rst.ItemsProcessed != tst.ItemsProcessed {
			t.Errorf("%s: post-recovery stats diverge: %+v vs %+v", k.name, rst, tst)
		}
	}
}

// TestGracefulShutdownWritesFinalCheckpoint: after Close, the newest
// boundary in every run's ring is its final round — the last round wrote
// it, so shutdown needs no extra step and a restart restores that round
// without writing anything.
func TestGracefulShutdownWritesFinalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	svc, st := openRecovered(t, dir)
	id := createRunOn(t, svc, `{"kind":"cluster","p":2,"k":16,"seed":5}`)
	if code := ingestDirect(svc, id, `{"synthetic":{"batch_len":100,"rounds":3}}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	svc.Close()
	st.Close()

	rsvc, rst := openRecovered(t, dir)
	defer func() { rsvc.Close(); rst.Close() }()
	if got := viewOf(t, rsvc, id).rounds; got != 3 {
		t.Fatalf("restart restored round %d, want the final round 3", got)
	}
	if n := rst.Status().Checkpoints; n != 0 {
		t.Fatalf("restart wrote %d boundaries", n)
	}
}

// TestDeleteRemovesDiskState: DELETE /v1/runs/{id} must remove the run's
// on-disk directory (config and slots), and a subsequent recovery must not
// resurrect the run.
func TestDeleteRemovesDiskState(t *testing.T) {
	dir := t.TempDir()
	ts, svc, st := newPersistentServer(t, dir)
	t.Cleanup(func() { svc.Close(); st.Close(); ts.Close() })
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":16,"seed":6}`)
	ingestWait(t, ts, run.ID, `{"synthetic":{"batch_len":50,"rounds":2}}`)

	runDir := filepath.Join(dir, "runs", run.ID)
	if _, err := os.Stat(runDir); err != nil {
		t.Fatalf("run dir missing before delete: %v", err)
	}
	if code, raw := doJSON(t, "DELETE", ts.URL+"/v1/runs/"+run.ID, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", code, raw)
	}
	// Disk removal happens after the worker exits; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(runDir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run dir still on disk after delete")
		}
		time.Sleep(2 * time.Millisecond)
	}

	svc2 := New(WithStore(st))
	if err := svc2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.runCount(); n != 0 {
		t.Fatalf("deleted run resurrected: %d runs recovered", n)
	}
}

// TestQueueFullWritesNoSlot: a batch rejected with 429 must write no
// boundary — only applied rounds reach the slot ring. The boundary write
// happens in the worker right after a round runs, so the test parks the
// worker, fills the queue, collects a 429, and then counts the boundaries
// written and the rounds the ring holds.
func TestQueueFullWritesNoSlot(t *testing.T) {
	dir := t.TempDir()
	ts, svc, st := newPersistentServer(t, dir)
	// The hard stop below abandons svc without closing it; reap its worker
	// at cleanup, after the slots have been inspected.
	t.Cleanup(svc.Close)
	run := createRun(t, ts, `{"kind":"cluster","p":1,"k":8,"seed":7,"queue_depth":1}`)
	r, _ := svc.lookup(run.ID)
	entered, release := blockWorker(r)

	base := ts.URL + "/v1/runs/" + run.ID + "/batches"
	post := func() int {
		resp, err := http.Post(base, "application/json", strings.NewReader(makeBatches(1, 10, 1)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(); code != http.StatusAccepted { // job A: picked up by the worker
		t.Fatalf("job A: %d", code)
	}
	<-entered                                        // worker parked before A's round
	if code := post(); code != http.StatusAccepted { // job B: sits on the queue
		t.Fatalf("job B: %d", code)
	}
	if code := post(); code != http.StatusTooManyRequests { // job C: rejected
		t.Fatalf("job C: want 429, got %d", code)
	}
	close(release)
	pollStats(t, ts, run.ID, func(st Stats) bool { return st.Rounds == 2 && st.PendingRounds == 0 })
	// Boundary 0 at creation, then one per applied round.
	if n := st.Status().Checkpoints; n != 3 {
		t.Fatalf("%d boundaries written, want 3 (creation plus the 2 applied rounds)", n)
	}

	// Hard stop and inspect the two-slot ring: it holds the boundaries of
	// the two applied rounds, the newest being round 2.
	ts.Close()
	st.Abandon()
	st2, err := store.Open(dir, store.WithFsync(store.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, slots, err := st2.OpenSlots(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer slots.Close()
	if got := slots.Rounds(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Fatalf("slot ring holds rounds %v, want [1 2]", got)
	}
}

// TestCloseWaitsForDeleteCleanup: a DELETE acknowledged before shutdown
// must have its disk removal completed by the time Close returns, so the
// deleted run cannot resurrect on the next recovery.
func TestCloseWaitsForDeleteCleanup(t *testing.T) {
	dir := t.TempDir()
	ts, svc, st := newPersistentServer(t, dir)
	run := createRun(t, ts, `{"kind":"cluster","p":2,"k":8,"seed":8}`)
	ingestWait(t, ts, run.ID, `{"synthetic":{"batch_len":50,"rounds":2}}`)
	if code, raw := doJSON(t, "DELETE", ts.URL+"/v1/runs/"+run.ID, "", nil); code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", code, raw)
	}
	svc.Close() // must block until the run dir is gone
	st.Close()
	ts.Close()
	if _, err := os.Stat(filepath.Join(dir, "runs", run.ID)); !os.IsNotExist(err) {
		t.Fatalf("deleted run dir survives Close: %v", err)
	}
}

// TestHealthzReportsStore: the health endpoint surfaces the store
// directory, fsync policy, open runs and boundary writes when persistence
// is on.
func TestHealthzReportsStore(t *testing.T) {
	dir := t.TempDir()
	ts, svc, st := newPersistentServer(t, dir)
	t.Cleanup(func() { svc.Close(); st.Close(); ts.Close() })
	run := createRun(t, ts, `{"kind":"sequential","k":8,"seed":9}`)
	ingestWait(t, ts, run.ID, `{"synthetic":{"batch_len":20,"rounds":2}}`)

	var hr HealthResponse
	if code, raw := doJSON(t, "GET", ts.URL+"/healthz", "", &hr); code != http.StatusOK {
		t.Fatalf("healthz: %d %s", code, raw)
	}
	if hr.Store == nil {
		t.Fatal("healthz has no store section")
	}
	// Boundary 0 at creation plus one per round.
	if hr.Store.Dir != dir || hr.Store.Fsync != "off" || hr.Store.Checkpoints != 3 || hr.Store.Runs != 1 {
		t.Fatalf("store status: %+v", hr.Store)
	}
}

// runView is a run's published state as the crash tests compare it.
type runView struct {
	rounds, sampleSize      int
	items, inserted, selRnd int64
	threshold               float64
	sample                  []uint64
}

func viewOf(t *testing.T, svc *Server, id string) runView {
	t.Helper()
	r, ok := svc.lookup(id)
	if !ok {
		t.Fatalf("run %s is not live", id)
	}
	st := r.stats()
	items, _ := r.sample()
	ids := make([]uint64, len(items))
	for i, it := range items {
		ids[i] = it.ID
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return runView{
		rounds: st.Rounds, sampleSize: st.SampleSize, items: st.ItemsProcessed,
		inserted: st.Inserted, selRnd: st.SelectionDepth, threshold: st.Threshold, sample: ids,
	}
}

// ingestDirect posts one wait-mode ingest through svc's handler on the
// calling goroutine and returns the status code.
func ingestDirect(svc *Server, id, body string) int {
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs/"+id+"/batches?wait=true", strings.NewReader(body)))
	return rec.Code
}

// openRecovered opens the store in dir and recovers its runs, without an
// HTTP listener.
func openRecovered(t *testing.T, dir string) (*Server, *store.Store) {
	t.Helper()
	st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(WithStore(st))
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	return svc, st
}

// slotFrame returns the snapshot frame at the start of a slot file's
// contents: header (magic, version, kind, round, blob length), blob, CRC.
func slotFrame(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) < 18 {
		t.Fatalf("slot holds %d bytes", len(b))
	}
	return b[:18+int(binary.LittleEndian.Uint32(b[14:]))+4]
}

// TestTornNewestSlotRecoversPreviousRound tears the newest boundary of a
// persisted cluster run and of a persisted sequential run at every byte
// offset, as a crash mid slot write would: the slot keeps its previous
// contents overwritten by a strict prefix of the new frame. Every
// recovery must come back at the previous round equal to an
// uninterrupted twin there, and then continue identically.
func TestTornNewestSlotRecoversPreviousRound(t *testing.T) {
	for _, k := range []struct {
		name, cfg string
		p         int
	}{
		{"cluster", `{"kind":"cluster","p":2,"k":6,"seed":31}`, 2},
		{"sequential", `{"kind":"sequential","k":4,"seed":32}`, 1},
	} {
		t.Run(k.name, func(t *testing.T) {
			batch := func(r int) string { return makeBatches(k.p, 30, uint64(r)*1000+1) }
			dir := t.TempDir()
			svc, st := openRecovered(t, dir)
			t.Cleanup(svc.Close) // reaps the worker the hard stop orphans
			id := createRunOn(t, svc, k.cfg)
			// Boundary `rounds` is torn over the slot that held boundary
			// rounds-n, one ring cycle earlier; boundary rounds-1 sits
			// intact in another slot.
			n := len(slotFiles(t, filepath.Join(dir, "runs", id)))
			rounds := n + 1
			slot := filepath.Join(dir, "runs", id, fmt.Sprintf("slot-%d", rounds%n))
			var old []byte
			for r := 0; r < rounds; r++ {
				if r == rounds-n {
					old = readFile(t, slot)
				}
				if code := ingestDirect(svc, id, batch(r)); code != http.StatusOK {
					t.Fatalf("round %d: %d", r, code)
				}
			}
			frame := slotFrame(t, readFile(t, slot))
			st.Abandon()

			twin := New()
			t.Cleanup(twin.Close)
			createRunOn(t, twin, k.cfg)
			for r := 0; r < rounds-1; r++ {
				ingestDirect(twin, id, batch(r))
			}
			wantPrev := viewOf(t, twin, id)
			next := batch(100)
			ingestDirect(twin, id, next)
			wantNext := viewOf(t, twin, id)

			for off := 0; off < len(frame); off++ {
				img := append([]byte(nil), old...)
				if off > len(img) {
					img = append(img, make([]byte, off-len(img))...)
				}
				copy(img, frame[:off])
				if err := os.WriteFile(slot, img, 0o644); err != nil {
					t.Fatal(err)
				}
				rsvc, rst := openRecovered(t, dir)
				if got := viewOf(t, rsvc, id); !reflect.DeepEqual(got, wantPrev) {
					t.Fatalf("torn at byte %d: recovered %+v, want the twin at round %d %+v", off, got, rounds-1, wantPrev)
				}
				if code := ingestDirect(rsvc, id, next); code != http.StatusOK {
					t.Fatalf("torn at byte %d: ingest after recovery: %d", off, code)
				}
				if got := viewOf(t, rsvc, id); !reflect.DeepEqual(got, wantNext) {
					t.Fatalf("torn at byte %d: continued run %+v, want %+v", off, got, wantNext)
				}
				rsvc.Close()
				rst.Close()
			}
		})
	}
}

// TestFailedSlotWriteRollsBack injects a failed boundary write into every
// run kind: the ingest answers 500, the published round count does not
// move, the sampler is rolled back to the last durable boundary (so the
// next ingest matches a twin that never saw the failed batch), and the
// disk state recovers to the same run. A cluster run is rolled back by
// restoring its boundary, as recovery does, so its virtual time, network
// and timing stats restart from zero: the failed round is never
// published, and the next round reports only its own cost.
func TestFailedSlotWriteRollsBack(t *testing.T) {
	dir := t.TempDir()
	svc, st := openRecovered(t, dir)
	t.Cleanup(svc.Close)
	twin := New()
	t.Cleanup(twin.Close)
	for _, k := range persistedRunKinds {
		id := createRunOn(t, svc, k.cfg)
		createRunOn(t, twin, k.cfg)
		for r := 0; r < 3; r++ {
			b := makeBatches(k.p, 40, uint64(r)*1000+1)
			ingestDirect(svc, id, b)
			ingestDirect(twin, id, b)
		}
		r, _ := svc.lookup(id)
		before := r.stats()
		r.slotHook = func() error { return fmt.Errorf("injected write failure") }
		if code := ingestDirect(svc, id, makeBatches(k.p, 40, 90_001)); code != http.StatusInternalServerError {
			t.Fatalf("%s: failed slot write answered %d, want 500", k.name, code)
		}
		r.slotHook = nil
		if got, want := viewOf(t, svc, id), viewOf(t, twin, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after the failed write %+v, want unchanged %+v", k.name, got, want)
		}
		if got := r.stats(); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: the failed round changed the published stats: %+v, was %+v", k.name, got, before)
		}
		twinRun, _ := twin.lookup(id)
		twinStats := twinRun.stats()
		next := makeBatches(k.p, 40, 50_001)
		ingestDirect(svc, id, next)
		ingestDirect(twin, id, next)
		if got, want := viewOf(t, svc, id), viewOf(t, twin, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: next ingest %+v, want the twin's %+v", k.name, got, want)
		}
		if got := r.stats(); got.Network != nil {
			twinNext := twinRun.stats()
			if want := twinNext.Network.Messages - twinStats.Network.Messages; got.Network.Messages != want {
				t.Fatalf("%s: %d messages after the rollback, want the %d of one round", k.name, got.Network.Messages, want)
			}
			if got.VirtualTimeNS <= 0 || got.VirtualTimeNS >= twinNext.VirtualTimeNS {
				t.Fatalf("%s: virtual time %v after the rollback, want one round's, below the twin's %v", k.name, got.VirtualTimeNS, twinNext.VirtualTimeNS)
			}
			if got.Timing.TotalNS <= 0 || got.Timing.TotalNS >= twinNext.Timing.TotalNS {
				t.Fatalf("%s: timing total %v after the rollback, want one round's, below the twin's %v", k.name, got.Timing.TotalNS, twinNext.Timing.TotalNS)
			}
		}
	}
	st.Abandon()
	rsvc, rst := openRecovered(t, dir)
	defer func() { rsvc.Close(); rst.Close() }()
	for i := range persistedRunKinds {
		id := fmt.Sprintf("r%d", i+1)
		if got, want := viewOf(t, rsvc, id), viewOf(t, twin, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: recovered %+v, want %+v", persistedRunKinds[i].name, got, want)
		}
	}
}

// TestRecoverRefusesRunWithoutValidSlot: a run whose slots all fail their
// CRC is not reset to round 0 — recovery skips it and leaves every file
// as it was, and its ID is not handed out again.
func TestRecoverRefusesRunWithoutValidSlot(t *testing.T) {
	dir := t.TempDir()
	svc, st := openRecovered(t, dir)
	t.Cleanup(svc.Close)
	id := createRunOn(t, svc, `{"kind":"sequential","k":8,"seed":4}`)
	ingestDirect(svc, id, makeBatches(1, 20, 1))
	st.Abandon()

	runDir := filepath.Join(dir, "runs", id)
	before := map[string][]byte{"config.json": readFile(t, filepath.Join(runDir, "config.json"))}
	for _, name := range slotFiles(t, runDir) {
		b := readFile(t, filepath.Join(runDir, name))
		if len(b) > 0 {
			b[len(b)/2] ^= 0x40 // inside the frame: fails its CRC
			if err := os.WriteFile(filepath.Join(runDir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before[name] = b
	}
	rsvc, rst := openRecovered(t, dir)
	defer func() { rsvc.Close(); rst.Close() }()
	if n := rsvc.RunCount(); n != 0 {
		t.Fatalf("%d runs recovered from a ring with no valid slot", n)
	}
	for name, want := range before {
		if got := readFile(t, filepath.Join(runDir, name)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed after the refused recovery", name)
		}
	}
	if next := createRunOn(t, rsvc, `{"kind":"sequential","k":8}`); next == id {
		t.Fatalf("refused run's ID %s handed out again", id)
	}
}

// TestRecoverRefusesForeignSlotTag: a run whose newest slot carries
// another run kind's tag, or a tag no kind has, is skipped by recovery
// with the refusal logged and every file left as it was.
func TestRecoverRefusesForeignSlotTag(t *testing.T) {
	for _, c := range []struct {
		name, cfg string
		p         int
		tag       byte
		want      string
	}{
		{"cluster-seq-tag", `{"kind":"cluster","p":2,"k":8,"seed":41}`, 2, snapKindSeqW, "does not match run kind cluster"},
		{"sequential-cluster-tag", `{"kind":"sequential","k":8,"seed":42}`, 1, snapKindCluster, "does not match run kind sequential"},
		// Tag 4 belonged to the deleted windowed run kind; no kind has it now.
		{"sequential-windowed-tag", `{"kind":"sequential","k":8,"seed":43,"uniform":true}`, 1, 4, "unknown snapshot kind 4"},
		{"cluster-unknown-tag", `{"kind":"cluster","p":2,"k":4,"seed":44}`, 2, 9, "unknown snapshot kind 9"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			svc, st := openRecovered(t, dir)
			id := createRunOn(t, svc, c.cfg)
			if code := ingestDirect(svc, id, makeBatches(c.p, 20, 1)); code != http.StatusOK {
				t.Fatalf("ingest: %d", code)
			}
			svc.Close()
			st.Close()

			// A newer boundary whose blob is the run's own, under the
			// foreign tag.
			st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
			if err != nil {
				t.Fatal(err)
			}
			_, slots, err := st.OpenSlots(id)
			if err != nil {
				t.Fatal(err)
			}
			own, err := slots.Latest()
			if err == nil {
				err = slots.Write(&store.Snapshot{Round: own.Round + 1, Kind: c.tag, Blob: own.Blob})
			}
			slots.Close()
			if err != nil {
				t.Fatal(err)
			}
			runDir := filepath.Join(dir, "runs", id)
			before := map[string][]byte{"config.json": readFile(t, filepath.Join(runDir, "config.json"))}
			for _, name := range slotFiles(t, runDir) {
				before[name] = readFile(t, filepath.Join(runDir, name))
			}

			var logs strings.Builder
			rsvc := New(WithStore(st), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
			defer func() { rsvc.Close(); st.Close() }()
			if err := rsvc.Recover(); err != nil {
				t.Fatal(err)
			}
			if n := rsvc.RunCount(); n != 0 {
				t.Fatalf("%d runs recovered from a slot tagged %d", n, c.tag)
			}
			if !strings.Contains(logs.String(), c.want) {
				t.Fatalf("recovery log %q does not say %q", logs.String(), c.want)
			}
			for name, want := range before {
				if got := readFile(t, filepath.Join(runDir, name)); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s changed after the refused recovery", name)
				}
			}
		})
	}
}

// TestRecoverRefusesWindowedRun: a store written before the sliding-window
// run kind was deleted holds a run with kind "windowed" and tag-4 slots.
// Recovery skips it with an error naming the kind, leaves its files in
// place, and never hands its ID out again.
func TestRecoverRefusesWindowedRun(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithFsync(store.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	const id = "r1"
	if err := st.SetNextID(1); err != nil {
		t.Fatal(err)
	}
	slots, err := st.CreateSlots(id, []byte(`{"kind":"windowed","p":1,"k":4,"seed":44,"window":60,"chunk_len":20,"queue_depth":32}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		if err := slots.Write(&store.Snapshot{Round: round, Kind: 4, Blob: []byte("sliding-window sampler state")}); err != nil {
			t.Fatal(err)
		}
	}
	slots.Close()
	runDir := filepath.Join(dir, "runs", id)
	before := map[string][]byte{"config.json": readFile(t, filepath.Join(runDir, "config.json"))}
	for _, name := range slotFiles(t, runDir) {
		before[name] = readFile(t, filepath.Join(runDir, name))
	}

	var logs strings.Builder
	svc := New(WithStore(st), WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	defer func() { svc.Close(); st.Close() }()
	if err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := svc.RunCount(); n != 0 {
		t.Fatalf("%d runs recovered from a windowed run", n)
	}
	if !strings.Contains(logs.String(), "unknown kind") || !strings.Contains(logs.String(), "windowed") {
		t.Fatalf("recovery log %q does not name the unknown kind", logs.String())
	}
	for name, want := range before {
		if got := readFile(t, filepath.Join(runDir, name)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s changed after the refused recovery", name)
		}
	}
	if next := createRunOn(t, svc, `{"kind":"sequential","k":8}`); next == id {
		t.Fatalf("refused run's ID %s handed out again", id)
	}
}

// TestRunDirStaysAtSlotRing: however many rounds a run ingests, its
// directory holds only config.json and its slots.
// TestRecoverAcceptsBlockedSkipConfig: a run created while RunConfig had
// a blocked_skip field has it in its stored config. Recovery decodes the
// stored config leniently, so the run comes back with the same rounds and
// sample and keeps ingesting; only a create request refuses the field.
func TestRecoverAcceptsBlockedSkipConfig(t *testing.T) {
	dir := t.TempDir()
	svc, st := openRecovered(t, dir)
	id := createRunOn(t, svc, `{"kind":"cluster","p":2,"k":16,"seed":21}`)
	if code := ingestDirect(svc, id, makeBatches(2, 60, 1)); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	want := viewOf(t, svc, id)
	svc.Close()
	st.Close()

	path := filepath.Join(dir, "runs", id, "config.json")
	var cfg map[string]any
	if err := json.Unmarshal(readFile(t, path), &cfg); err != nil {
		t.Fatal(err)
	}
	cfg["blocked_skip"] = true
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rsvc, rst := openRecovered(t, dir)
	defer func() { rsvc.Close(); rst.Close() }()
	if n := rsvc.RunCount(); n != 1 {
		t.Fatalf("%d runs recovered from a config with blocked_skip, want 1", n)
	}
	if got := viewOf(t, rsvc, id); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered run differs:\n  got  %+v\n  want %+v", got, want)
	}
	if code := ingestDirect(rsvc, id, makeBatches(2, 60, 2)); code != http.StatusOK {
		t.Fatalf("ingest after recovery: %d", code)
	}
}

func TestRunDirStaysAtSlotRing(t *testing.T) {
	dir := t.TempDir()
	svc, st := openRecovered(t, dir)
	defer func() { svc.Close(); st.Close() }()
	id := createRunOn(t, svc, `{"kind":"cluster","p":2,"k":16,"seed":9}`)
	if code := ingestDirect(svc, id, `{"synthetic":{"batch_len":200,"rounds":50}}`); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	runDir := filepath.Join(dir, "runs", id)
	entries, err := os.ReadDir(runDir)
	if err != nil {
		t.Fatal(err)
	}
	slots := slotFiles(t, runDir)
	if len(slots) < 2 || len(entries) != len(slots)+1 {
		t.Fatalf("run dir after 50 rounds holds %d entries, want config.json plus the %d slots", len(entries), len(slots))
	}
	if _, err := os.Stat(filepath.Join(runDir, "config.json")); err != nil {
		t.Fatal(err)
	}
}

// slotFiles lists the slot file names of a run directory.
func slotFiles(t *testing.T, runDir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(runDir, "slot-*"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

// createRunOn creates a run through svc's handler and returns its ID.
func createRunOn(t *testing.T, svc *Server, cfg string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs", strings.NewReader(cfg)))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create run: %d %s", rec.Code, rec.Body)
	}
	var resp CreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.ID
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
