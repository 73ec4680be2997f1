package nodesvc

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"reservoir"
	"reservoir/internal/service"
	"reservoir/internal/store"
	"reservoir/internal/transport/tcpnet"
	"reservoir/internal/workload/scenario"
)

// openSoloNode builds a one-node fault-tolerant server over the store in
// dir and tears its transport and store down again. It returns New's
// error; the server is never run.
func openSoloNode(t *testing.T, dir string, cfg reservoir.Config) error {
	t.Helper()
	st, err := store.Open(dir, store.WithFsync(store.FsyncOff), store.WithSnapshotRetention(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tcpnet.Dial(tcpnet.Config{
		Rank: 0, Peers: []string{ln.Addr().String()}, Listener: ln,
		FormationTimeout: 10 * time.Second, RejoinTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = New(Options{Conn: tr, Config: cfg, Store: st})
	return err
}

// TestRejoinChecksScanConfig: the shard count and the Pipeline flag are
// part of the sampling stream's identity, so a node restarted with a
// different Pipeline flag must refuse its checkpoint. An explicit
// Shards: 1 is the default scan and must resume a store written with
// Shards unset.
func TestRejoinChecksScanConfig(t *testing.T) {
	dir := t.TempDir()
	cfg := reservoir.Config{K: 16, Weighted: true, Seed: 5}
	if err := openSoloNode(t, dir, cfg); err != nil {
		t.Fatalf("fresh node: %v", err)
	}

	flipped := cfg
	flipped.Pipeline = true
	err := openSoloNode(t, dir, flipped)
	if err == nil || !strings.Contains(err.Error(), "does not match flags") {
		t.Fatalf("restart with a flipped Pipeline: error %v, want a config mismatch", err)
	}

	one := cfg
	one.Shards = 1
	if err := openSoloNode(t, dir, one); err != nil {
		t.Fatalf("restart with Shards: 1 over a default-shards store: %v", err)
	}
}

// TestDiskStateRoundTrip: the binary boundary state carries every field,
// every counter included (reflection fills each Counters field with a
// distinct value, so a counter added without a codec change fails here).
func TestDiskStateRoundTrip(t *testing.T) {
	ds := diskState{Round: 1<<40 + 3, Epoch: 7, Sampler: []byte("sampler state")}
	cv := reflect.ValueOf(&ds.Counters).Elem()
	for i := 0; i < cv.NumField(); i++ {
		cv.Field(i).SetInt(int64(i+1) << (8 * i))
	}
	enc := encodeDiskState(&ds)
	if len(enc) != diskStateHeader+len(ds.Sampler) {
		t.Fatalf("encoded %d bytes, want %d", len(enc), diskStateHeader+len(ds.Sampler))
	}
	got, err := decodeDiskState(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, ds) {
		t.Fatalf("round trip: got %+v, want %+v", *got, ds)
	}
	if _, err := decodeDiskState(enc[:diskStateHeader-1]); err == nil {
		t.Fatal("short state decoded")
	}

	// The on-disk layout itself: round, epoch, then the six counters in
	// field order, each a little-endian uint64, then the sampler bytes.
	known := diskState{Round: 0x0102, Epoch: 3, Counters: reservoir.Counters{
		ItemsProcessed: 4, Inserted: 5, CandidateWords: 6,
		Selections: 7, SelectionRounds: 8, TailSelections: 0x0a09,
	}, Sampler: []byte{0xee}}
	want := []byte{
		0x02, 0x01, 0, 0, 0, 0, 0, 0,
		3, 0, 0, 0, 0, 0, 0, 0,
		4, 0, 0, 0, 0, 0, 0, 0,
		5, 0, 0, 0, 0, 0, 0, 0,
		6, 0, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, 0,
		8, 0, 0, 0, 0, 0, 0, 0,
		0x09, 0x0a, 0, 0, 0, 0, 0, 0,
		0xee,
	}
	if got := encodeDiskState(&known); !bytes.Equal(got, want) {
		t.Fatalf("encoded boundary state\n got %x\nwant %x", got, want)
	}
}

// FuzzDecodeDiskState: arbitrary bytes never panic, and accepted input
// re-encodes bit-identically.
func FuzzDecodeDiskState(f *testing.F) {
	f.Add(encodeDiskState(&diskState{Round: 12, Epoch: 3, Counters: reservoir.Counters{ItemsProcessed: 4096, Inserted: 300, Selections: 12, SelectionRounds: 40}, Sampler: bytes.Repeat([]byte{1, 2, 3}, 30)}))
	f.Add(encodeDiskState(&diskState{}))
	f.Add(make([]byte, diskStateHeader-1))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := decodeDiskState(data)
		if err != nil {
			return
		}
		if !bytes.Equal(encodeDiskState(ds), data) {
			t.Fatal("accepted boundary state does not re-encode bit-identically")
		}
	})
}

// TestNodeDirStaysAtSlotRing: a durable node's data directory holds
// config.json plus its slot ring however many rounds run, and every
// round boundary counts as one checkpoint.
func TestNodeDirStaysAtSlotRing(t *testing.T) {
	const p, rounds = 2, 50
	cfg := reservoir.Config{K: 16, Weighted: true, Seed: 6}
	c := startChaosCluster(t, p, cfg, reservoir.Distributed)
	for i := 0; i < rounds; i++ {
		resp, data := c.post("/v1/cluster/rounds",
			map[string]any{"synthetic": service.SyntheticSpec{BatchLen: 200}}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: %s: %s", i, resp.Status, data)
		}
	}
	for _, n := range c.nodes {
		// Round 0's boundary plus one per round.
		if got := n.st.Status().Checkpoints; got != rounds+1 {
			t.Errorf("rank %d: %d checkpoints, want %d", n.rank, got, rounds+1)
		}
		entries, err := os.ReadDir(filepath.Join(n.dir, "runs", nodeRunID))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if want := []string{"config.json", "slot-0", "slot-1", "slot-2", "slot-3"}; !reflect.DeepEqual(names, want) {
			t.Errorf("rank %d: data dir holds %v, want %v", n.rank, names, want)
		}
	}
	c.shutdownAll()
}

// TestRefusesWALLayoutDir: a node data directory written by the
// WAL-and-checkpoint layout (wal-*/snap-* files, no slots) is refused at
// startup with an error naming the layout.
func TestRefusesWALLayoutDir(t *testing.T) {
	dir := t.TempDir()
	run := filepath.Join(dir, "runs", nodeRunID)
	if err := os.MkdirAll(run, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"config.json", "wal-0000000000000005.log", "snap-0000000000000005.snap"} {
		if err := os.WriteFile(filepath.Join(run, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := openSoloNode(t, dir, reservoir.Config{K: 16, Weighted: true, Seed: 5})
	if err == nil || !strings.Contains(err.Error(), "WAL-and-checkpoint") {
		t.Fatalf("node over a WAL-layout dir: error %v, want a layout refusal", err)
	}
}

// TestSourceCompiledOncePerSpec: the compiled source is reused while the
// spec's value is unchanged (Rounds and the scenario pointer aside) and
// rebuilt when any source field changes.
func TestSourceCompiledOncePerSpec(t *testing.T) {
	s := &Server{runCfg: service.RunConfig{Seed: 1}}
	zipf := func() *scenario.Spec { return &scenario.Spec{Law: "zipf", HotFrac: 0.01, HotBoost: 8} }
	a, err := s.source(service.SyntheticSpec{BatchLen: 100, Rounds: 1, Scenario: zipf()})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.source(service.SyntheticSpec{BatchLen: 100, Rounds: 5, Scenario: zipf()})
	if a != b {
		t.Fatal("an equal spec (other Rounds, other scenario pointer) recompiled its source")
	}
	c, _ := s.source(service.SyntheticSpec{BatchLen: 101, Scenario: zipf()})
	if c == b {
		t.Fatal("a changed batch_len reused the old source")
	}
	if _, err := s.source(service.SyntheticSpec{BatchLen: 1, Source: "nope"}); err == nil {
		t.Fatal("invalid spec compiled")
	}
	if again, _ := s.source(service.SyntheticSpec{BatchLen: 101, Scenario: zipf()}); again != c {
		t.Fatal("a failed compile evicted the cached source")
	}
	if d, _ := s.source(service.SyntheticSpec{BatchLen: 101}); d == c {
		t.Fatal("dropping the scenario reused the scenario source")
	}
}

// TestSourceCacheConcurrent: rank 0's HTTP handlers validate specs
// through the cache while its collective loop executes them.
func TestSourceCacheConcurrent(t *testing.T) {
	s := &Server{runCfg: service.RunConfig{Seed: 1}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				spec := service.SyntheticSpec{BatchLen: 100 + (g+i)%3, Scenario: &scenario.Spec{Law: "zipf"}}
				src, err := s.source(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if got := src.(*scenario.Source).Spec(); got.Law != "zipf" {
					t.Errorf("cached source has law %q", got.Law)
					return
				}
			}
		}()
	}
	wg.Wait()
}
