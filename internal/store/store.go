package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"reservoir/internal/metrics"
)

// FsyncPolicy controls whether boundary slot writes reach stable storage
// before they are acknowledged.
type FsyncPolicy int

const (
	// FsyncInterval (the default) fsyncs every slot write. It is the
	// same as FsyncAlways; both names stay because deployed command lines
	// pass them.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs every slot write.
	FsyncAlways
	// FsyncOff never fsyncs; durability rests on the OS page cache (a
	// process crash loses nothing, a power failure may).
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
// version-1 store's runs would resume on a different sampling stream.
const manifestVersion = 2

// Status is the store health summary surfaced by GET /healthz: Runs is the
// number of open slot rings, Checkpoints the slot writes since Open.
type Status struct {
	Dir         string `json:"dir"`
	Fsync       string `json:"fsync"`
	Runs        int    `json:"runs"`
	Checkpoints int64  `json:"checkpoints"`
	LastError   string `json:"last_error,omitempty"`
}

// Store is one persistence directory: MANIFEST.json plus one subdirectory
// per run under runs/, each holding config.json and a ring of boundary
// slots (a service run, or a cluster node's state).
type Store struct {
	dir       string
	policy    FsyncPolicy
	slotCount int // boundary slots per slot ring (>= 2)

	mu    sync.Mutex // guards manifest writes and the slot registry
	man   manifest
	slots map[*Slots]struct{}

	checkpoints atomic.Int64
	lastErr     atomic.Pointer[string]

	// Optional /metrics instrumentation (nil when WithMetrics was not
	// given; *metrics.Histogram methods are nil-receiver no-ops).
	slotFsyncSeconds *metrics.Histogram

	lockFile *os.File // exclusive flock on the data dir (nil off-unix)
}

// Option customizes Open.
type Option func(*Store)

// WithFsync selects the fsync policy (default FsyncInterval).
func WithFsync(p FsyncPolicy) Option {
	return func(s *Store) { s.policy = p }
}

// WithSnapshotRetention sizes every slot ring: the n newest round
// boundaries stay restorable (n is raised to at least 2, the default).
// Node recovery uses this history so a restarted node can roll back to
// whichever round boundary the survivors agree on, not just its own
// newest; a service run only ever restores its newest boundary.
func WithSnapshotRetention(n int) Option {
	return func(s *Store) { s.slotCount = max(n, 2) }
}

// WithMetrics registers the store's persistence instrumentation on reg:
// the slot fsync latency histogram and a counter view over the slot
// writes the store already tracks (read at scrape time — no extra
// hot-path accounting).
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Store) {
		if reg == nil {
			return
		}
		s.slotFsyncSeconds = reg.NewHistogram("reservoir_store_slot_fsync_seconds",
			"Boundary slot fsync latency (one per boundary under always and interval; none under off).",
			metrics.DefBuckets, nil)
		reg.CounterFunc("reservoir_store_checkpoints_total",
			"Round boundaries persisted: one boundary slot write per service run round or node round.",
			nil, nil, func() float64 { return float64(s.checkpoints.Load()) })
	}
}

// Open creates or reopens a store rooted at dir.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{dir: dir, slotCount: 2, slots: make(map[*Slots]struct{})}
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
	return s, nil
}

func (s *Store) runsDir() string         { return filepath.Join(s.dir, "runs") }
func (s *Store) runDir(id string) string { return filepath.Join(s.runsDir(), id) }
func (s *Store) Dir() string             { return s.dir }

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

// DeleteRun removes a run's on-disk state entirely. The run's slot ring
// must be closed first (a service run's worker does this on exit).
func (s *Store) DeleteRun(id string) error {
	if err := os.RemoveAll(s.runDir(id)); err != nil {
		return s.noteErr(fmt.Errorf("store: delete run %s: %w", id, err))
	}
	syncDir(s.runsDir())
	return nil
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
	runs := len(s.slots)
	s.mu.Unlock()
	st := Status{
		Dir:         s.dir,
		Fsync:       s.policy.String(),
		Runs:        runs,
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

// Close closes every slot ring still open and releases the directory
// lock. Every slot write was already complete when it returned, so
// nothing is flushed here.
func (s *Store) Close() error {
	s.mu.Lock()
	slots := make([]*Slots, 0, len(s.slots))
	for sl := range s.slots {
		slots = append(slots, sl)
	}
	s.mu.Unlock()
	var first error
	for _, sl := range slots {
		if err := sl.Close(); err != nil && first == nil {
			first = err
		}
	}
	releaseDirLock(s.lockFile)
	return first
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
