package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// RunLog is the persistence handle of one run. AppendRound and Checkpoint
// are called only from the run's ingest worker goroutine; the per-log
// mutex exists solely to coordinate with the store's interval-fsync
// goroutine and with Close, never with other runs — persistence adds no
// cross-run serialization.
type RunLog struct {
	st  *Store
	id  string
	dir string

	mu       sync.Mutex // guards the fields below
	f        *os.File   // active WAL segment (append-only)
	segStart uint64     // round the active segment begins at
	dirty    bool       // unsynced bytes pending (interval policy)

	// walBytes is the active segment's size: the bytes the service's
	// checkpoint-by-bytes policy measures.
	walBytes int64
}

func newRunLog(st *Store, id, dir string, f *os.File, segStart uint64, size int64) *RunLog {
	return &RunLog{st: st, id: id, dir: dir, f: f, segStart: segStart, walBytes: size}
}

func (l *RunLog) lock()   { l.mu.Lock() }
func (l *RunLog) unlock() { l.mu.Unlock() }

func segName(round uint64) string  { return fmt.Sprintf("wal-%016x.log", round) }
func snapName(round uint64) string { return fmt.Sprintf("snap-%016x.snap", round) }

// parseSeq extracts the round from a "wal-%016x.log"/"snap-%016x.snap"
// file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// AppendRound durably appends one round record to the active WAL segment
// (durability subject to the store's fsync policy). It must complete
// before the round is applied to the sampler: a crash after the append
// replays the round, a crash before it never acknowledged the round.
//
// A *failed* append must leave no trace: the caller reports an error and
// never applies the round, so bytes left behind by the failed attempt —
// a torn frame, or a complete frame whose fsync failed — would either
// shadow later acknowledged rounds or replay data the client was told
// was rejected. On any failure the segment is truncated back to its
// pre-append length; if even that fails, the log is poisoned (closed) so
// nothing can append behind inconsistent bytes.
func (l *RunLog) AppendRound(rec *RoundRecord) error {
	frame := EncodeRecord(rec)
	l.lock()
	defer l.unlock()
	if l.f == nil {
		return fmt.Errorf("store: run %s log is closed", l.id)
	}
	undo := func(cause error) error {
		if terr := l.f.Truncate(l.walBytes); terr != nil {
			l.f.Close()
			l.f = nil
			return l.st.noteErr(fmt.Errorf("store: run %s WAL poisoned (append: %v; truncate: %v)", l.id, cause, terr))
		}
		return l.st.noteErr(fmt.Errorf("store: append run %s: %w", l.id, cause))
	}
	start := time.Now()
	if _, err := l.f.Write(frame); err != nil {
		return undo(err)
	}
	if l.st.policy == FsyncAlways {
		fsyncStart := time.Now()
		if err := l.f.Sync(); err != nil {
			return undo(err)
		}
		l.st.fsyncSeconds.Observe(time.Since(fsyncStart).Seconds())
	} else {
		l.dirty = true
	}
	l.st.appendSeconds.Observe(time.Since(start).Seconds())
	l.walBytes += int64(len(frame))
	l.st.walAppends.Add(1)
	l.st.walBytesTotal.Add(int64(len(frame)))
	return nil
}

// WALBytes reports the size of the active segment — the bytes written
// since the last checkpoint (or run creation).
func (l *RunLog) WALBytes() int64 {
	l.lock()
	defer l.unlock()
	return l.walBytes
}

// Checkpoint atomically persists a full sampler snapshot taken at
// snap.Round and rotates the WAL: the snapshot file lands via tmp-file +
// rename, a fresh segment starting at the snapshot round becomes active,
// and superseded segments and snapshots are removed. If a crash interrupts
// any step, recovery still succeeds: round-stamped records make replay
// idempotent, so an old segment overlapping a newer snapshot is merely
// skipped work.
func (l *RunLog) Checkpoint(snap *Snapshot) error {
	if err := writeFileAtomic(l.dir, filepath.Join(l.dir, snapName(snap.Round)), EncodeSnapshot(snap)); err != nil {
		return l.st.noteErr(fmt.Errorf("store: checkpoint run %s: %w", l.id, err))
	}
	nf, err := os.OpenFile(filepath.Join(l.dir, segName(snap.Round)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return l.st.noteErr(fmt.Errorf("store: rotate run %s: %w", l.id, err))
	}
	syncDir(l.dir)

	l.lock()
	old := l.f
	l.f = nf
	l.segStart = snap.Round
	l.walBytes = 0
	l.dirty = false
	l.unlock()
	l.st.checkpoints.Add(1)

	if old != nil {
		old.Close()
	}
	// Remove what the newest snapshot on disk supersedes: older
	// snapshots and the WAL segments before it.
	entries, _ := os.ReadDir(l.dir)
	cutoff := snap.Round
	for _, e := range entries {
		if r, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && r > cutoff {
			cutoff = r
		}
	}
	for _, e := range entries {
		if r, ok := parseSeq(e.Name(), "wal-", ".log"); ok && r < cutoff {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
		if r, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && r < cutoff {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	return nil
}

// sync flushes pending interval-policy writes; called by the store's
// background syncer. On failure the dirty flag stays set, so the next
// tick (or Close) retries — otherwise one transient fsync error would
// silently void the "loses at most the last interval" durability bound.
func (l *RunLog) sync() error {
	l.lock()
	defer l.unlock()
	if !l.dirty || l.f == nil {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.st.fsyncSeconds.Observe(time.Since(start).Seconds())
	l.dirty = false
	return nil
}

// Close flushes and closes the active segment and unregisters the log.
func (l *RunLog) Close() error {
	l.lock()
	var err error
	if l.f != nil {
		if l.st.policy != FsyncOff && l.dirty {
			if err = l.f.Sync(); err == nil {
				l.dirty = false
			}
		}
		cerr := l.f.Close()
		if err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.unlock()
	l.st.unregister(l.id)
	return err
}

// writeFileAtomic writes data to path via a temp file in dir, fsyncing the
// file and then the directory, so the target name only ever refers to a
// complete file.
func writeFileAtomic(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Best effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// latestSnapshot loads the newest decodable snapshot in dir (nil if none).
func latestSnapshot(dir string) (*Snapshot, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var rounds []uint64
	for _, e := range entries {
		if r, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			rounds = append(rounds, r)
		}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] > rounds[j] })
	var firstErr error
	for _, r := range rounds {
		b, err := os.ReadFile(filepath.Join(dir, snapName(r)))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		snap, err := DecodeSnapshot(b)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", snapName(r), err)
			}
			continue
		}
		return snap, nil
	}
	return nil, firstErr
}

// truncateActiveTail trims the newest WAL segment to its longest valid
// record prefix. Only the active segment can legitimately carry a torn
// tail (a crash mid-append); cutting it before the segment is reopened
// for appending keeps the file a pure record sequence, so rounds written
// after recovery stay reachable by the next recovery. A clean torn tail
// (partial final frame) is simply dropped; if the cut is due to actual
// corruption (CRC mismatch, bad magic — the scanner cannot resync past
// it, so later records are unreachable regardless), the original segment
// is first preserved as <name>.corrupt for manual inspection. Returns the
// number of bytes dropped (0 for a clean tail).
func truncateActiveTail(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	newest, found := uint64(0), false
	for _, e := range entries {
		if r, ok := parseSeq(e.Name(), "wal-", ".log"); ok && (!found || r > newest) {
			newest, found = r, true
		}
	}
	if !found {
		return 0, nil
	}
	path := filepath.Join(dir, segName(newest))
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	// Streamed scan (one record in memory): find the valid-prefix offset.
	consumed, derr := replaySegment(path, func(*RoundRecord) error { return nil })
	if consumed == fi.Size() && derr == nil {
		return 0, nil
	}
	if derr != nil {
		// Not a torn tail but corruption: keep the full original around
		// (invisible to segment scans — wrong suffix) before cutting.
		if werr := copyFile(path, path+".corrupt"); werr != nil {
			return 0, fmt.Errorf("%v (and preserving the corrupt segment failed: %v)", derr, werr)
		}
	}
	if err := os.Truncate(path, consumed); err != nil {
		return 0, err
	}
	return fi.Size() - consumed, nil
}

// copyFile streams src to dst (no in-memory materialization).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// segmentStarts lists the start rounds of every WAL segment in dir,
// ascending. Segments never overlap in round ranges (rotation happens at
// the checkpoint round), so ascending segment order is round order.
func segmentStarts(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var starts []uint64
	for _, e := range entries {
		if r, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			starts = append(starts, r)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}
