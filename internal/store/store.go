package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"reservoir/internal/metrics"
)

// FsyncPolicy controls when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncInterval (the default) batches fsyncs on a background timer: a
	// crash loses at most the last interval of accepted rounds to a power
	// failure (an OS-level crash of just the process loses nothing).
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs after every appended record.
	FsyncAlways
	// FsyncOff never fsyncs; durability rests on the OS page cache.
	FsyncOff
)

// String names the policy as accepted by ParseFsyncPolicy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval, or off)", s)
	}
}

// manifest is the store-wide metadata file (MANIFEST.json, atomic rename).
// NextID persists the service's run-ID counter so IDs are never reused
// across restarts, even for deleted runs.
type manifest struct {
	Version int   `json:"version"`
	NextID  int64 `json:"next_id"`
}

// manifestVersion 2: the sharded scan became the only scan, so a
// version-1 store's WALs would replay onto a different sampling stream.
const manifestVersion = 2

// Status is the store health summary surfaced by GET /healthz.
type Status struct {
	Dir         string `json:"dir"`
	Fsync       string `json:"fsync"`
	Runs        int    `json:"runs"`
	WALAppends  int64  `json:"wal_appends"`
	WALBytes    int64  `json:"wal_bytes"`
	Checkpoints int64  `json:"checkpoints"`
	LastError   string `json:"last_error,omitempty"`
}

// Store is one persistence directory: MANIFEST.json plus one subdirectory
// per run under runs/, each holding config.json and either WAL segments
// and snapshot files (service runs) or boundary slots (a cluster node).
type Store struct {
	dir       string
	policy    FsyncPolicy
	interval  time.Duration
	slotCount int // boundary slots per slot ring (>= 2)

	mu    sync.Mutex // guards manifest writes and the log and slot registries
	man   manifest
	logs  map[string]*RunLog
	slots []*Slots

	walAppends    atomic.Int64
	walBytesTotal atomic.Int64
	checkpoints   atomic.Int64
	lastErr       atomic.Pointer[string]

	// Optional /metrics instrumentation (nil when WithMetrics was not
	// given; *metrics.Histogram methods are nil-receiver no-ops).
	appendSeconds    *metrics.Histogram
	fsyncSeconds     *metrics.Histogram
	slotFsyncSeconds *metrics.Histogram

	stopSync chan struct{}
	syncDone chan struct{}
	stopOnce sync.Once
	lockFile *os.File // exclusive flock on the data dir (nil off-unix)
}

// Option customizes Open.
type Option func(*Store)

// WithFsync selects the fsync policy (default FsyncInterval).
func WithFsync(p FsyncPolicy) Option {
	return func(s *Store) { s.policy = p }
}

// WithFsyncInterval sets the background fsync cadence of FsyncInterval
// (default 100ms).
func WithFsyncInterval(d time.Duration) Option {
	return func(s *Store) {
		if d > 0 {
			s.interval = d
		}
	}
}

// WithSnapshotRetention sizes a cluster node's boundary slot ring: the n
// newest round boundaries stay restorable (n is raised to at least 2).
// Node recovery uses this history so a restarted node can roll back to
// whichever round boundary the survivors agree on, not just its own
// newest. Service runs keep only their newest checkpoint.
func WithSnapshotRetention(n int) Option {
	return func(s *Store) { s.slotCount = max(n, 2) }
}

// WithMetrics registers the store's persistence instrumentation on reg:
// WAL append, WAL fsync and slot fsync latency histograms, plus counter
// views over the append/byte/checkpoint totals the store already tracks
// (read at scrape time — no extra hot-path accounting).
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Store) {
		if reg == nil {
			return
		}
		s.appendSeconds = reg.NewHistogram("reservoir_store_wal_append_seconds",
			"WAL append latency (write plus fsync under the always policy).",
			metrics.DefBuckets, nil)
		s.fsyncSeconds = reg.NewHistogram("reservoir_store_wal_fsync_seconds",
			"WAL fsync latency (per append under always, per flush under interval).",
			metrics.DefBuckets, nil)
		reg.CounterFunc("reservoir_store_wal_appends_total",
			"Round records appended to WAL segments.",
			nil, nil, func() float64 { return float64(s.walAppends.Load()) })
		reg.CounterFunc("reservoir_store_wal_bytes_total",
			"Bytes appended to WAL segments.",
			nil, nil, func() float64 { return float64(s.walBytesTotal.Load()) })
		s.slotFsyncSeconds = reg.NewHistogram("reservoir_store_slot_fsync_seconds",
			"Boundary slot fsync latency (one per node round boundary, under every fsync policy).",
			metrics.DefBuckets, nil)
		reg.CounterFunc("reservoir_store_checkpoints_total",
			"Sampler checkpoints persisted (service WAL rotations and node boundary slot writes).",
			nil, nil, func() float64 { return float64(s.checkpoints.Load()) })
	}
}

// Open creates or reopens a store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:       dir,
		interval:  100 * time.Millisecond,
		slotCount: 2,
		logs:      make(map[string]*RunLog),
		stopSync:  make(chan struct{}),
		syncDone:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if err := os.MkdirAll(s.runsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := acquireDirLock(dir)
	if err != nil {
		return nil, err
	}
	s.lockFile = lock
	fail := func(err error) (*Store, error) {
		releaseDirLock(lock)
		return nil, err
	}
	mpath := filepath.Join(dir, "MANIFEST.json")
	if b, err := os.ReadFile(mpath); err == nil {
		if err := json.Unmarshal(b, &s.man); err != nil {
			return fail(fmt.Errorf("store: corrupt MANIFEST.json: %w", err))
		}
		if s.man.Version != manifestVersion {
			return fail(fmt.Errorf("store: manifest version %d, this build supports %d", s.man.Version, manifestVersion))
		}
	} else if os.IsNotExist(err) {
		s.man = manifest{Version: manifestVersion}
		if err := s.writeManifest(); err != nil {
			return fail(err)
		}
	} else {
		return fail(fmt.Errorf("store: %w", err))
	}
	if s.policy == FsyncInterval {
		go s.syncLoop()
	} else {
		close(s.syncDone)
	}
	return s, nil
}

func (s *Store) runsDir() string         { return filepath.Join(s.dir, "runs") }
func (s *Store) runDir(id string) string { return filepath.Join(s.runsDir(), id) }
func (s *Store) Dir() string             { return s.dir }
func (s *Store) Policy() FsyncPolicy     { return s.policy }

// writeManifest persists the manifest atomically. Caller holds s.mu (or is
// Open, before the store is shared).
func (s *Store) writeManifest() error {
	b, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(s.dir, filepath.Join(s.dir, "MANIFEST.json"), append(b, '\n')); err != nil {
		return s.noteErr(fmt.Errorf("store: write manifest: %w", err))
	}
	return nil
}

// NextID returns the persisted run-ID counter.
func (s *Store) NextID() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.man.NextID
}

// SetNextID durably advances the run-ID counter (it never moves backward).
func (s *Store) SetNextID(n int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= s.man.NextID {
		return nil
	}
	s.man.NextID = n
	return s.writeManifest()
}

// CreateRun initializes on-disk state for a new run: its directory, the
// config.json (written atomically), and an empty WAL segment starting at
// round 0. The returned RunLog is registered for interval fsyncs.
func (s *Store) CreateRun(id string, configJSON []byte) (*RunLog, error) {
	dir, err := s.createRunDir(id, configJSON)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(0)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, s.noteErr(fmt.Errorf("store: create run %s wal: %w", id, err))
	}
	syncDir(dir)
	syncDir(s.runsDir())
	l := newRunLog(s, id, dir, f, 0, 0)
	s.register(l)
	return l, nil
}

// createRunDir makes a run's directory and writes its config.json
// atomically.
func (s *Store) createRunDir(id string, configJSON []byte) (string, error) {
	dir := s.runDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", s.noteErr(fmt.Errorf("store: create run %s: %w", id, err))
	}
	if err := writeFileAtomic(dir, filepath.Join(dir, "config.json"), configJSON); err != nil {
		return "", s.noteErr(fmt.Errorf("store: write run %s config: %w", id, err))
	}
	return dir, nil
}

// RunState is what recovery needs before replay: the run's config and the
// newest valid snapshot (nil if the run was never checkpointed). The WAL
// records past the snapshot are streamed separately with ReplayRecords so
// recovery memory stays bounded even for runs that never checkpoint.
type RunState struct {
	Config   []byte
	Snapshot *Snapshot
	// Warning notes recoverable damage (e.g. a torn tail that was
	// truncated); the run still recovers to the last consistent round.
	Warning error
}

// LoadRun reads a run's persisted state and reopens its WAL for appending.
// The active segment is the newest one on disk. A torn tail on the active
// segment (crash mid-append) is truncated away before the segment is
// reopened, so post-recovery appends land behind a valid record prefix
// instead of behind garbage that would shadow them on the next recovery.
//
// A checkpointed run (its oldest WAL segment starts past round 0) whose
// snapshots have all become unreadable is NOT loadable: pretending it is
// would silently reset acknowledged data to round 0 and corrupt the
// WAL's round numbering for every future recovery. LoadRun returns an
// error instead, and the caller leaves the files for inspection.
func (s *Store) LoadRun(id string) (*RunState, *RunLog, error) {
	dir := s.runDir(id)
	cfg, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		return nil, nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	st := &RunState{Config: cfg}
	if dropped, terr := truncateActiveTail(dir); terr != nil {
		st.Warning = terr
	} else if dropped > 0 {
		st.Warning = fmt.Errorf("store: run %s: dropped %d torn/corrupt trailing WAL bytes", id, dropped)
	}
	var snapErr error
	st.Snapshot, snapErr = latestSnapshot(dir)
	if snapErr != nil && st.Warning == nil {
		st.Warning = snapErr
	}
	starts, err := segmentStarts(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	if st.Snapshot == nil && len(starts) > 0 && starts[0] > 0 {
		return nil, nil, fmt.Errorf(
			"store: run %s was checkpointed (WAL starts at round %d) but no snapshot decodes (%v); refusing to reset it to round 0",
			id, starts[0], snapErr)
	}

	// Reopen the newest segment for appending.
	segStart := uint64(0)
	if len(starts) > 0 {
		segStart = starts[len(starts)-1]
	}
	path := filepath.Join(dir, segName(segStart))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, s.noteErr(fmt.Errorf("store: reopen run %s wal: %w", id, err))
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	l := newRunLog(s, id, dir, f, segStart, size)
	s.register(l)
	return st, l, nil
}

// errStopReplay aborts a segment scan from inside the per-record callback.
var errStopReplay = fmt.Errorf("store: stop replay")

// ReplayRecords streams the run's WAL records with Round >= from to fn, in
// round order, one record in memory at a time, enforcing contiguity:
// records a snapshot already covers are skipped, and the stream stops at
// the first gap or corrupt frame (warn reports why; everything before it
// was delivered). An error returned by fn aborts the replay and is
// returned as err. Call after restoring the RunState snapshot, with from
// set to the restored round.
func (s *Store) ReplayRecords(id string, from uint64, fn func(*RoundRecord) error) (replayed int, warn, err error) {
	dir := s.runDir(id)
	starts, err := segmentStarts(dir)
	if err != nil {
		return 0, nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	expect := from
	var fnErr error
	for _, start := range starts {
		_, serr := replaySegment(filepath.Join(dir, segName(start)), func(rec *RoundRecord) error {
			if rec.Round < expect {
				return nil // covered by the snapshot (or a stale overlap)
			}
			if rec.Round > expect {
				warn = fmt.Errorf("store: run %s: missing WAL record for round %d (next is %d)", id, expect, rec.Round)
				return errStopReplay
			}
			if err := fn(rec); err != nil {
				fnErr = err
				return errStopReplay
			}
			expect++
			replayed++
			return nil
		})
		if fnErr != nil {
			return replayed, warn, fnErr
		}
		if serr != nil && serr != errStopReplay && warn == nil {
			warn = fmt.Errorf("store: run %s: %s: %w", id, segName(start), serr)
		}
		if warn != nil {
			break // replay only the consistent prefix
		}
	}
	return replayed, warn, nil
}

// ListRuns returns the IDs of all persisted runs, sorted.
func (s *Store) ListRuns() ([]string, error) {
	entries, err := os.ReadDir(s.runsDir())
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// DeleteRun removes a run's on-disk state entirely. Any registered RunLog
// for the run must be closed first (the run's worker does this on exit).
func (s *Store) DeleteRun(id string) error {
	if err := os.RemoveAll(s.runDir(id)); err != nil {
		return s.noteErr(fmt.Errorf("store: delete run %s: %w", id, err))
	}
	syncDir(s.runsDir())
	return nil
}

func (s *Store) register(l *RunLog) {
	s.mu.Lock()
	s.logs[l.id] = l
	s.mu.Unlock()
}

func (s *Store) unregister(id string) {
	s.mu.Lock()
	delete(s.logs, id)
	s.mu.Unlock()
}

// noteErr records the most recent storage error for /healthz and returns it.
func (s *Store) noteErr(err error) error {
	msg := err.Error()
	s.lastErr.Store(&msg)
	return err
}

// Status summarizes the store for health reporting.
func (s *Store) Status() Status {
	s.mu.Lock()
	runs := len(s.logs)
	s.mu.Unlock()
	st := Status{
		Dir:         s.dir,
		Fsync:       s.policy.String(),
		Runs:        runs,
		WALAppends:  s.walAppends.Load(),
		WALBytes:    s.walBytesTotal.Load(),
		Checkpoints: s.checkpoints.Load(),
	}
	if p := s.lastErr.Load(); p != nil {
		st.LastError = *p
	}
	return st
}

// Abandon releases the store's directory lock without flushing or closing
// anything else, leaving files exactly as they are — the in-process
// equivalent of the process dying (a real kill -9 releases the flock
// automatically). Crash-recovery tests use it before reopening the
// directory; production code has no reason to call it.
func (s *Store) Abandon() {
	releaseDirLock(s.lockFile)
	s.lockFile = nil
}

// syncLoop is the FsyncInterval background syncer: every interval it
// fsyncs all logs with unsynced appends.
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			logs := make([]*RunLog, 0, len(s.logs))
			for _, l := range s.logs {
				logs = append(logs, l)
			}
			s.mu.Unlock()
			for _, l := range logs {
				if err := l.sync(); err != nil {
					s.noteErr(fmt.Errorf("store: interval sync run %s: %w", l.id, err))
				}
			}
		}
	}
}

// Close stops the background syncer and closes every registered log
// (flushing pending writes). The service closes run logs from their
// workers first; Close handles whatever remains.
func (s *Store) Close() error {
	s.stopOnce.Do(func() { close(s.stopSync) })
	<-s.syncDone
	s.mu.Lock()
	logs := make([]*RunLog, 0, len(s.logs))
	for _, l := range s.logs {
		logs = append(logs, l)
	}
	slots := s.slots
	s.slots = nil
	s.mu.Unlock()
	var first error
	for _, l := range logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sl := range slots {
		if err := sl.Close(); err != nil && first == nil {
			first = err
		}
	}
	releaseDirLock(s.lockFile)
	return first
}
