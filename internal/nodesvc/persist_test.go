package nodesvc

import (
	"net"
	"strings"
	"testing"
	"time"

	"reservoir"
	"reservoir/internal/store"
	"reservoir/internal/transport/tcpnet"
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
