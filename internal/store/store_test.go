package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := &Snapshot{Round: 42, Kind: 7, Blob: []byte("sampler-state-blob")}
	b := EncodeSnapshot(s)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != s.Round || got.Kind != s.Kind || !bytes.Equal(got.Blob, s.Blob) {
		t.Fatalf("round-trip mismatch: %+v vs %+v", got, s)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x10
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("snapshot flip at %d went undetected", i)
		}
	}
	if _, err := DecodeSnapshot(b[:len(b)-3]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestStoreCreateLoadDelete: a run created in one store instance reopens
// in the next with its config and boundaries, the run-ID counter
// survives, a locked directory cannot be opened twice, Status counts the
// open slot rings, and DeleteRun removes the run directory.
func TestStoreCreateLoadDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetNextID(3); err != nil {
		t.Fatal(err)
	}
	sl, err := st.CreateSlots("r3", []byte(`{"k":16}`))
	if err != nil {
		t.Fatal(err)
	}
	writeRounds(t, sl, 0, 5, func(uint64) int { return 64 })
	if got := st.Status(); got.Runs != 1 || got.Checkpoints != 5 {
		t.Fatalf("status %+v, want 1 run and 5 checkpoints", got)
	}
	if err := sl.Close(); err != nil {
		t.Fatal(err)
	}
	if got := st.Status().Runs; got != 0 {
		t.Fatalf("status counts %d runs after the ring closed", got)
	}
	// While a store is open, the directory is exclusively flocked.
	if _, err := Open(dir); err == nil {
		t.Fatal("double-open of a locked store dir must fail")
	}
	if err := st.Close(); err != nil { // releases the directory lock
		t.Fatal(err)
	}

	// Reopen as a fresh store (a restart).
	st2, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NextID() != 3 {
		t.Fatalf("next_id = %d, want 3", st2.NextID())
	}
	ids, err := st2.ListRuns()
	if err != nil || len(ids) != 1 || ids[0] != "r3" {
		t.Fatalf("ListRuns = %v, %v", ids, err)
	}
	cfg, sl2, err := st2.OpenSlots("r3")
	if err != nil {
		t.Fatal(err)
	}
	if string(cfg) != `{"k":16}` {
		t.Fatalf("config = %s", cfg)
	}
	if latest, err := sl2.Latest(); err != nil || latest == nil || latest.Round != 4 || !bytes.Equal(latest.Blob, boundaryBlob(4, 64)) {
		t.Fatalf("latest boundary = %+v, %v; want round 4", latest, err)
	}
	sl2.Close()

	if err := st2.DeleteRun("r3"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", "r3")); !os.IsNotExist(err) {
		t.Fatalf("run dir survives delete: %v", err)
	}
}

// TestManifestRejectsVersion1: version-1 stores were written by builds
// with the single-stream scan; resuming their runs would silently
// continue on a different sampling stream.
func TestManifestRejectsVersion1(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"version":1,"next_id":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), "manifest version 1") {
		t.Fatalf("version-1 manifest: Open error %v, want a version refusal", err)
	}
}

func TestManifestRejectsWrongVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"version":99,"next_id":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("wrong-version manifest accepted")
	}
}
