package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mkRecord(round uint64, nBatches, nItems int) *RoundRecord {
	rec := &RoundRecord{Round: round, Batches: make([][]Item, nBatches)}
	for i := range rec.Batches {
		items := make([]Item, nItems)
		for j := range items {
			items[j] = Item{W: float64(round)*10 + float64(i) + float64(j)/16, ID: round<<32 | uint64(i)<<16 | uint64(j)}
		}
		rec.Batches[i] = items
	}
	return rec
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []*RoundRecord{
		mkRecord(0, 4, 3),
		{Round: 1, Synthetic: []byte(`{"batch_len":100}`)},
		mkRecord(2, 1, 0),
	}
	var buf []byte
	for _, r := range recs {
		buf = append(buf, EncodeRecord(r)...)
	}
	got, consumed, err := DecodeRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range recs {
		g := got[i]
		if g.Round != r.Round || !bytes.Equal(g.Synthetic, r.Synthetic) || len(g.Batches) != len(r.Batches) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, g, r)
		}
		for b := range r.Batches {
			if len(g.Batches[b]) != len(r.Batches[b]) {
				t.Fatalf("record %d batch %d length mismatch", i, b)
			}
			for j := range r.Batches[b] {
				if g.Batches[b][j] != r.Batches[b][j] {
					t.Fatalf("record %d batch %d item %d mismatch", i, b, j)
				}
			}
		}
	}
}

func TestRecordTornTail(t *testing.T) {
	full := EncodeRecord(mkRecord(0, 2, 5))
	torn := append(append([]byte(nil), full...), EncodeRecord(mkRecord(1, 2, 5))[:17]...)
	recs, consumed, err := DecodeRecords(torn)
	if err != nil {
		t.Fatalf("torn tail must not be an error, got %v", err)
	}
	if len(recs) != 1 || consumed != len(full) {
		t.Fatalf("got %d records, consumed %d (want 1, %d)", len(recs), consumed, len(full))
	}
}

func TestRecordCorruption(t *testing.T) {
	full := EncodeRecord(mkRecord(3, 2, 8))
	// Bit-flip every byte position in turn: decoding must never succeed
	// with altered content and never panic.
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x40
		recs, _, err := DecodeRecords(mut)
		if err == nil && len(recs) == 1 {
			r := recs[0]
			if r.Round != 3 || len(r.Batches) != 2 {
				t.Fatalf("flip at %d decoded to wrong content", i)
			}
			// A flip that still decodes identically would be a CRC
			// collision; with a single-bit flip that is impossible.
			t.Fatalf("flip at %d went undetected", i)
		}
	}
	// Length-lying: claim a huge payload.
	lie := append([]byte(nil), full...)
	lie[6], lie[7], lie[8], lie[9] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := DecodeRecords(lie); err == nil {
		t.Fatal("length-lying record accepted")
	}
}

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

// collectRecords replays a run's WAL into a slice (tests only; production
// recovery streams records one at a time).
func collectRecords(t *testing.T, st *Store, id string, from uint64) ([]*RoundRecord, error) {
	t.Helper()
	var recs []*RoundRecord
	_, warn, err := st.ReplayRecords(id, from, func(r *RoundRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("ReplayRecords(%s): %v", id, err)
	}
	return recs, warn
}

func TestStoreCreateLoadDelete(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetNextID(3); err != nil {
		t.Fatal(err)
	}
	l, err := st.CreateRun("r3", []byte(`{"k":16}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 5; round++ {
		if err := l.AppendRound(mkRecord(round, 2, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if l.WALBytes() == 0 {
		t.Fatal("WALBytes not tracked")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
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
	rs, l2, err := st2.LoadRun("r3")
	if err != nil {
		t.Fatal(err)
	}
	if string(rs.Config) != `{"k":16}` {
		t.Fatalf("config = %s", rs.Config)
	}
	recs, warn := collectRecords(t, st2, "r3", 0)
	if rs.Snapshot != nil || len(recs) != 5 || rs.Warning != nil || warn != nil {
		t.Fatalf("state: snap=%v records=%d warns=%v/%v", rs.Snapshot, len(recs), rs.Warning, warn)
	}
	for i, r := range recs {
		if r.Round != uint64(i) {
			t.Fatalf("record %d has round %d", i, r.Round)
		}
	}
	// Appends continue in the same segment.
	if err := l2.AppendRound(mkRecord(5, 2, 4)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	if err := st2.DeleteRun("r3"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "runs", "r3")); !os.IsNotExist(err) {
		t.Fatalf("run dir survives delete: %v", err)
	}
}

func TestCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.CreateRun("r1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 4; round++ {
		if err := l.AppendRound(mkRecord(round, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(&Snapshot{Round: 4, Kind: 1, Blob: []byte("state@4")}); err != nil {
		t.Fatal(err)
	}
	if l.WALBytes() != 0 {
		t.Fatalf("WALBytes = %d after checkpoint", l.WALBytes())
	}
	// Two more rounds after the checkpoint, then a second checkpoint.
	for round := uint64(4); round < 6; round++ {
		if err := l.AppendRound(mkRecord(round, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(&Snapshot{Round: 6, Kind: 1, Blob: []byte("state@6")}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRound(mkRecord(6, 1, 2)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Old segments and snapshots are gone.
	entries, _ := os.ReadDir(filepath.Join(dir, "runs", "r1"))
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, n := range names {
		if n == segName(0) || n == segName(4) || n == snapName(4) {
			t.Fatalf("superseded file %s survives rotation (have %v)", n, names)
		}
	}

	rs, l2, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rs.Snapshot == nil || rs.Snapshot.Round != 6 || string(rs.Snapshot.Blob) != "state@6" {
		t.Fatalf("snapshot: %+v", rs.Snapshot)
	}
	recs, warn := collectRecords(t, st, "r1", rs.Snapshot.Round)
	if len(recs) != 1 || recs[0].Round != 6 || warn != nil {
		t.Fatalf("records after snapshot: %d (warn %v)", len(recs), warn)
	}
}

func TestLoadRunTornAndStaleOverlap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.CreateRun("r1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		if err := l.AppendRound(mkRecord(round, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	// Crash between snapshot write and WAL rotation: the snapshot exists
	// but the old segment (rounds 0-2) is still the active one.
	snapPath := filepath.Join(dir, "runs", "r1", snapName(2))
	if err := os.WriteFile(snapPath, EncodeSnapshot(&Snapshot{Round: 2, Kind: 1, Blob: []byte("s2")}), 0o644); err != nil {
		t.Fatal(err)
	}
	// And a torn append at the tail.
	f, err := os.OpenFile(filepath.Join(dir, "runs", "r1", segName(0)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(EncodeRecord(mkRecord(3, 1, 2))[:11])
	f.Close()
	l.Close()

	rs, l2, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rs.Snapshot == nil || rs.Snapshot.Round != 2 {
		t.Fatalf("snapshot: %+v", rs.Snapshot)
	}
	// Rounds 0 and 1 are covered by the snapshot; round 2 replays; the
	// torn round-3 record is discarded.
	recs, warn := collectRecords(t, st, "r1", rs.Snapshot.Round)
	if len(recs) != 1 || recs[0].Round != 2 || warn != nil {
		t.Fatalf("records: %+v (warn %v)", recs, warn)
	}
}

func TestTornTailTruncatedBeforeAppend(t *testing.T) {
	// Rounds appended after a crash recovery must stay recoverable: the
	// torn tail left by the crash is truncated when the run is loaded, so
	// the active segment remains a pure record sequence.
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.CreateRun("r1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 2; round++ {
		if err := l.AppendRound(mkRecord(round, 1, 3)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Crash mid-append: a partial frame at the tail.
	segPath := filepath.Join(dir, "runs", "r1", segName(0))
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(EncodeRecord(mkRecord(2, 1, 3))[:13])
	f.Close()

	// First recovery: sees rounds 0-1, truncates the torn tail, appends
	// round 2 afresh.
	rs, l2, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	recs, warn := collectRecords(t, st, "r1", 0)
	if len(recs) != 2 || warn != nil || rs.Warning == nil {
		t.Fatalf("first recovery: %d records, warns %v/%v", len(recs), warn, rs.Warning)
	}
	if err := l2.AppendRound(mkRecord(2, 1, 3)); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	// Second recovery must see all three rounds — nothing shadowed.
	rs2, l3, err := st.LoadRun("r1")
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	recs2, warn2 := collectRecords(t, st, "r1", 0)
	if len(recs2) != 3 || warn2 != nil || rs2.Warning != nil {
		t.Fatalf("second recovery: %d records, warns %v/%v (want 3, nil, nil)", len(recs2), warn2, rs2.Warning)
	}
	for i, r := range recs2 {
		if r.Round != uint64(i) {
			t.Fatalf("record %d has round %d", i, r.Round)
		}
	}
}

func TestLoadRunRefusesResetOnCorruptSnapshot(t *testing.T) {
	// A checkpointed run whose snapshots have all become unreadable must
	// NOT load as a fresh round-0 run — that would silently discard
	// acknowledged data and scramble the WAL's round numbering.
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	l, err := st.CreateRun("r1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	for round := uint64(0); round < 3; round++ {
		if err := l.AppendRound(mkRecord(round, 1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(&Snapshot{Round: 3, Kind: 1, Blob: []byte("state@3")}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Corrupt the (only) snapshot.
	snapPath := filepath.Join(dir, "runs", "r1", snapName(3))
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(snapPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LoadRun("r1"); err == nil {
		t.Fatal("LoadRun accepted a checkpointed run with no decodable snapshot")
	}
	// The files survive for inspection.
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("snapshot file removed: %v", err)
	}
}

// TestManifestRejectsVersion1: version-1 stores were written by builds
// with the single-stream scan; replaying their WALs would silently
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
