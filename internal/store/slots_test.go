package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"reservoir/internal/metrics"
)

// boundaryBlob is a distinguishable blob of n bytes for round r.
func boundaryBlob(r uint64, n int) []byte {
	return bytes.Repeat([]byte{byte(r), byte(r >> 8), 0xA5}, n/3+1)[:n]
}

// writeRounds writes the boundaries of rounds [from, to) with blobs of
// size(r) bytes.
func writeRounds(t *testing.T, sl *Slots, from, to uint64, size func(uint64) int) {
	t.Helper()
	for r := from; r < to; r++ {
		if err := sl.Write(&Snapshot{Round: r, Kind: 9, Blob: boundaryBlob(r, size(r))}); err != nil {
			t.Fatal(err)
		}
	}
}

// reopenSlots opens the slot ring of run id in dir through a fresh store.
func reopenSlots(t *testing.T, dir, id string, retain int) (*Store, *Slots) {
	t.Helper()
	st, err := Open(dir, WithFsync(FsyncOff), WithSnapshotRetention(retain))
	if err != nil {
		t.Fatal(err)
	}
	cfg, sl, err := st.OpenSlots(id)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	if string(cfg) != `{"p":4}` {
		t.Fatalf("config = %q", cfg)
	}
	return st, sl
}

func createSlots(t *testing.T, dir string, retain int) (*Store, *Slots) {
	t.Helper()
	st, err := Open(dir, WithFsync(FsyncOff), WithSnapshotRetention(retain))
	if err != nil {
		t.Fatal(err)
	}
	sl, err := st.CreateSlots("node", []byte(`{"p":4}`))
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return st, sl
}

// TestSlotsWrapAround: round r lands in slot r mod n, the ring keeps the
// n newest boundaries across wrap-arounds, every one reads back, and a
// reopened ring indexes the same rounds. The run directory holds
// config.json plus the n slots, whatever the round count.
func TestSlotsWrapAround(t *testing.T) {
	dir := t.TempDir()
	st, sl := createSlots(t, dir, 3)
	writeRounds(t, sl, 0, 11, func(r uint64) int { return 40 + int(r) })
	if got := sl.Rounds(); !reflect.DeepEqual(got, []uint64{8, 9, 10}) {
		t.Fatalf("rounds = %v, want [8 9 10]", got)
	}
	if st.Status().Checkpoints != 11 {
		t.Fatalf("checkpoints = %d, want one per slot write (11)", st.Status().Checkpoints)
	}
	st.Close()

	st, sl = reopenSlots(t, dir, "node", 3)
	defer st.Close()
	if got := sl.Rounds(); !reflect.DeepEqual(got, []uint64{8, 9, 10}) {
		t.Fatalf("reopened rounds = %v, want [8 9 10]", got)
	}
	for r := uint64(8); r <= 10; r++ {
		snap, err := sl.Read(r)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Round != r || snap.Kind != 9 || !bytes.Equal(snap.Blob, boundaryBlob(r, 40+int(r))) {
			t.Fatalf("round %d read back as %+v", r, snap)
		}
	}
	if _, err := sl.Read(7); err == nil {
		t.Fatal("overwritten round 7 still readable")
	}
	latest, err := sl.Latest()
	if err != nil || latest.Round != 10 {
		t.Fatalf("latest = %+v, %v; want round 10", latest, err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "runs", "node"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"config.json", "slot-0", "slot-1", "slot-2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("run dir holds %v, want %v", names, want)
	}
}

// TestSlotsAtLeastTwo: a retention below 2 still gets two slots, so a
// torn overwrite never destroys the only boundary.
func TestSlotsAtLeastTwo(t *testing.T) {
	for _, retain := range []int{0, 1, 2} {
		dir := t.TempDir()
		st, sl := createSlots(t, dir, retain)
		writeRounds(t, sl, 0, 5, func(uint64) int { return 10 })
		if got := sl.Rounds(); !reflect.DeepEqual(got, []uint64{3, 4}) {
			t.Fatalf("retention %d: rounds = %v, want [3 4]", retain, got)
		}
		st.Close()
		if _, err := os.Stat(filepath.Join(dir, "runs", "node", slotName(2))); !os.IsNotExist(err) {
			t.Fatalf("retention %d: a third slot exists (%v)", retain, err)
		}
	}
}

// TestSlotsShorterOverLonger: a boundary shorter than the one it
// overwrites leaves the old tail in the file; readers decode only the
// framed prefix.
func TestSlotsShorterOverLonger(t *testing.T) {
	dir := t.TempDir()
	st, sl := createSlots(t, dir, 2)
	writeRounds(t, sl, 0, 2, func(uint64) int { return 500 })
	writeRounds(t, sl, 2, 4, func(uint64) int { return 7 })
	st.Close()

	path := filepath.Join(dir, "runs", "node", slotName(0))
	if fi, err := os.Stat(path); err != nil || fi.Size() <= int64(len(EncodeSnapshot(&Snapshot{Blob: make([]byte, 7)}))) {
		t.Fatalf("slot 0 was not left longer than its frame: %v, %v", fi, err)
	}
	st, sl = reopenSlots(t, dir, "node", 2)
	defer st.Close()
	for r := uint64(2); r < 4; r++ {
		snap, err := sl.Read(r)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !bytes.Equal(snap.Blob, boundaryBlob(r, 7)) {
			t.Fatalf("round %d blob = %x", r, snap.Blob)
		}
	}
}

// TestSlotsTornWriteEveryOffset: a crash that leaves any strict prefix of
// a boundary write over the slot's old contents must leave the previous
// round as the newest valid boundary — for a frame longer and one
// shorter than the frame it overwrites.
func TestSlotsTornWriteEveryOffset(t *testing.T) {
	const n = 4
	for _, tc := range []struct {
		name          string
		oldLen, newLn int
	}{
		{"longer", 30, 90},
		{"shorter", 90, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, sl := createSlots(t, dir, n)
			// Rounds 0..6 written; round 7 will overwrite round 3's slot.
			writeRounds(t, sl, 0, 7, func(r uint64) int {
				if r == 3 {
					return tc.oldLen
				}
				return 50
			})
			st.Close()
			const torn = uint64(7)
			path := filepath.Join(dir, "runs", "node", slotName(int(torn%n)))
			old, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := EncodeSnapshot(&Snapshot{Round: torn, Kind: 9, Blob: boundaryBlob(torn, tc.newLn)})
			for off := 0; off < len(frame); off++ {
				img := append([]byte(nil), old...)
				if off > len(img) {
					img = append(img, make([]byte, off-len(img))...)
				}
				copy(img, frame[:off])
				if err := os.WriteFile(path, img, 0o644); err != nil {
					t.Fatal(err)
				}
				st, sl := reopenSlots(t, dir, "node", n)
				latest, err := sl.Latest()
				rounds := sl.Rounds()
				st.Close()
				if err != nil || latest == nil || latest.Round != torn-1 {
					t.Fatalf("torn at byte %d: latest = %+v, %v; want round %d", off, latest, err, torn-1)
				}
				for _, r := range rounds {
					if r == torn {
						t.Fatalf("torn at byte %d: round %d decodes", off, torn)
					}
				}
			}
		})
	}
}

// TestOpenSlotsRefusesWALLayout: a run directory written by the
// WAL-and-checkpoint layout (wal-*/snap-* files) is refused with an error
// that names the problem, for nodes and service runs alike.
func TestOpenSlotsRefusesWALLayout(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, WithFsync(FsyncOff), WithSnapshotRetention(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// The earlier layout: config.json, a WAL segment and a checkpoint.
	runDir := filepath.Join(dir, "runs", "node")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{
		"config.json":                `{"p":4}`,
		"wal-0000000000000001.log":   "\x01",
		"snap-0000000000000001.snap": "\x01",
	} {
		if err := os.WriteFile(filepath.Join(runDir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = st.OpenSlots("node")
	if err == nil || !strings.Contains(err.Error(), "WAL-and-checkpoint") {
		t.Fatalf("OpenSlots over a WAL layout: error %v, want a layout refusal", err)
	}
}

// TestSlotsFsyncPolicies: FsyncAlways and FsyncInterval fsync every
// boundary; FsyncOff never fsyncs.
func TestSlotsFsyncPolicies(t *testing.T) {
	const rounds = 40
	for _, tc := range []struct {
		policy FsyncPolicy
		syncs  uint64
	}{
		{FsyncAlways, rounds},
		{FsyncInterval, rounds},
		{FsyncOff, 0},
	} {
		t.Run(tc.policy.String(), func(t *testing.T) {
			st, err := Open(t.TempDir(), WithFsync(tc.policy), WithMetrics(metrics.NewRegistry()))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			sl, err := st.CreateSlots("run", []byte(`{}`))
			if err != nil {
				t.Fatal(err)
			}
			writeRounds(t, sl, 0, rounds, func(uint64) int { return 50 })
			if got := st.slotFsyncSeconds.Count(); got != tc.syncs {
				t.Fatalf("%d fsyncs over %d rounds, want %d", got, rounds, tc.syncs)
			}
		})
	}
}
