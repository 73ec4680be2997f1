package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Slots is a fixed ring of boundary slot files: the persistence of every
// run, service run and cluster node alike. Between two rounds a sampler's
// whole state is its reservoir, threshold and RNG — a few KB — so a round
// boundary is all recovery ever needs: nothing is logged ahead of a round
// and nothing is replayed. The boundary of round r overwrites slot
// r mod n in place with one write, fsynced as Write describes; the other
// n-1 slots still hold the previous boundaries, so a torn overwrite
// (which fails its CRC) costs only the round being written.
// Slot contents use the snapshot framing (CRC'd and round-stamped); a
// shorter boundary written over a longer one leaves stale trailing bytes,
// which readers ignore by decoding only the framed prefix.
//
// A Slots is used from one goroutine (a service run's worker or a node's
// collective loop); its mutex only coordinates with Store.Close.
type Slots struct {
	st *Store
	id string

	mu     sync.Mutex
	files  []*os.File // nil once closed
	rounds []uint64   // round held by each slot
	valid  []bool     // slot holds a decodable boundary
}

func slotName(i int) string { return fmt.Sprintf("slot-%d", i) }

// CreateSlots initializes a slot ring run: its directory, config.json
// (written atomically) and n empty slot files.
func (s *Store) CreateSlots(id string, configJSON []byte) (*Slots, error) {
	dir, err := s.createRunDir(id, configJSON)
	if err != nil {
		return nil, err
	}
	sl, err := s.openSlots(id, dir)
	if err != nil {
		return nil, err
	}
	syncDir(dir)
	syncDir(s.runsDir())
	return sl, nil
}

// OpenSlots reopens an existing slot ring run and returns its persisted
// config. A run directory holding WAL segments or checkpoint files is
// refused: it was written by the earlier WAL-and-checkpoint layout (of a
// node or a service run), which this build cannot recover.
func (s *Store) OpenSlots(id string) (configJSON []byte, sl *Slots, err error) {
	dir := s.runDir(id)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") || strings.HasPrefix(e.Name(), "snap-") {
			return nil, nil, fmt.Errorf("store: run %s holds %s from the WAL-and-checkpoint layout, not boundary slots; this build cannot recover it (move %s aside to start the run fresh)",
				id, e.Name(), dir)
		}
	}
	cfg, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	sl, err = s.openSlots(id, dir)
	if err != nil {
		return nil, nil, err
	}
	return cfg, sl, nil
}

// openSlots opens (creating if missing) the n slot files of dir and
// indexes the boundary each one holds.
func (s *Store) openSlots(id, dir string) (*Slots, error) {
	n := s.slotCount
	sl := &Slots{st: s, id: id, files: make([]*os.File, n), rounds: make([]uint64, n), valid: make([]bool, n)}
	for i := range sl.files {
		f, err := os.OpenFile(filepath.Join(dir, slotName(i)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			sl.Close()
			return nil, s.noteErr(fmt.Errorf("store: open run %s %s: %w", id, slotName(i), err))
		}
		sl.files[i] = f
		if snap, err := sl.readSlot(i); err == nil {
			sl.rounds[i], sl.valid[i] = snap.Round, true
		}
	}
	s.mu.Lock()
	s.slots[sl] = struct{}{}
	s.mu.Unlock()
	return sl, nil
}

// readSlot decodes the boundary framed at the start of slot i. Bytes
// past the frame are the tail of a longer earlier boundary.
func (sl *Slots) readSlot(i int) (*Snapshot, error) {
	fi, err := sl.files[i].Stat()
	if err != nil {
		return nil, err
	}
	b := make([]byte, fi.Size())
	if _, err := sl.files[i].ReadAt(b, 0); err != nil {
		return nil, err
	}
	snap, err := decodeSnapshotPrefix(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", slotName(i), err)
	}
	return snap, nil
}

// Write persists snap as the boundary of snap.Round: one in-place write
// of slot Round mod n and, unless the store's policy is FsyncOff, one
// fsync — the boundary is durable when Write returns.
func (sl *Slots) Write(snap *Snapshot) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.files == nil {
		return fmt.Errorf("store: run %s slots are closed", sl.id)
	}
	i := int(snap.Round % uint64(len(sl.files)))
	sl.valid[i] = false // until the write lands, the slot may be torn
	f := sl.files[i]
	if _, err := f.WriteAt(EncodeSnapshot(snap), 0); err != nil {
		return sl.st.noteErr(fmt.Errorf("store: run %s write %s: %w", sl.id, slotName(i), err))
	}
	if sl.st.policy != FsyncOff {
		start := time.Now()
		if err := f.Sync(); err != nil {
			return sl.st.noteErr(fmt.Errorf("store: run %s sync %s: %w", sl.id, slotName(i), err))
		}
		sl.st.slotFsyncSeconds.Observe(time.Since(start).Seconds())
	}
	sl.rounds[i], sl.valid[i] = snap.Round, true
	sl.st.checkpoints.Add(1)
	return nil
}

// Rounds lists the rounds of the slots holding a valid boundary,
// ascending.
func (sl *Slots) Rounds() []uint64 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	var out []uint64
	for i, ok := range sl.valid {
		if ok {
			out = append(out, sl.rounds[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Read loads and verifies the boundary of the given round.
func (sl *Slots) Read(round uint64) (*Snapshot, error) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if sl.files == nil {
		return nil, fmt.Errorf("store: run %s slots are closed", sl.id)
	}
	for i, ok := range sl.valid {
		if !ok || sl.rounds[i] != round {
			continue
		}
		snap, err := sl.readSlot(i)
		if err != nil {
			return nil, fmt.Errorf("store: run %s round %d: %w", sl.id, round, err)
		}
		if snap.Round != round {
			return nil, fmt.Errorf("store: run %s: %s holds round %d, not %d", sl.id, slotName(i), snap.Round, round)
		}
		return snap, nil
	}
	return nil, fmt.Errorf("store: run %s: no slot holds round %d", sl.id, round)
}

// Latest loads the newest valid boundary; it returns nil, nil if no slot
// holds one.
func (sl *Slots) Latest() (*Snapshot, error) {
	rounds := sl.Rounds()
	if len(rounds) == 0 {
		return nil, nil
	}
	return sl.Read(rounds[len(rounds)-1])
}

// Close closes the slot files and drops the ring from the store's
// registry. Every write was already complete when it returned.
func (sl *Slots) Close() error {
	sl.mu.Lock()
	var first error
	for _, f := range sl.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	sl.files = nil
	sl.mu.Unlock()
	sl.st.mu.Lock()
	delete(sl.st.slots, sl)
	sl.st.mu.Unlock()
	return first
}
