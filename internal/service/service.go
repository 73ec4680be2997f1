// Package service implements reservoir-serve: a long-running HTTP service
// that hosts many concurrent sampler *runs*. A run is one sampler instance
// — a reservoir.Cluster (the paper's distributed algorithm or the
// centralized gathering baseline, fixed or variable sample size) or a
// sequential sampler — created from a JSON config and driven by batch ingest requests (see DESIGN.md §5 and
// docs/API.md).
//
// Concurrency model (async sharded ingest): every run owns a dedicated
// worker goroutine that is the *sole* owner of its sampler. Ingest
// requests are validated, converted into jobs on pooled buffers, and
// placed on the run's bounded queue; a full queue is explicit
// backpressure (429). POST ingest defaults to asynchronous 202 Accepted
// and turns synchronous with ?wait=true. After every completed round the
// worker publishes an immutable snapshot (stats + current sample) through
// an atomic pointer, so GET /sample, GET /stats, and run listings never
// block ingest — they read the latest snapshot without taking any lock.
// Runs are independent shards: clients on different runs proceed in
// parallel; jobs on the same run are ordered by its queue, one whole
// round at a time.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"reservoir"
	"reservoir/internal/metrics"
	"reservoir/internal/store"
	"reservoir/internal/workload/scenario"
)

// Limits guarding the HTTP surface.
const (
	maxRuns          = 1024      // concurrently hosted runs
	maxPEs           = 1024      // PEs per cluster run (goroutines per round)
	maxSynthBatch    = 1 << 20   // items per PE per synthetic round
	maxSynthRounds   = 10_000    // rounds per synthetic ingest request
	maxConfigBytes   = 1 << 20   // request body limit for run creation
	maxIngestBytes   = 256 << 20 // request body limit for batch ingest
	maxQueueDepth    = 4096      // hard cap on a run's ingest queue
	defaultQueueSize = 32        // default ingest queue depth per run
)

// Run kinds.
const (
	KindCluster    = "cluster"
	KindSequential = "sequential"
)

// WireItem is the JSON encoding of one weighted stream element.
type WireItem struct {
	W  float64 `json:"w"`
	ID uint64  `json:"id"`
}

// RunConfig is the JSON body of POST /v1/runs. The zero value of every
// field is a usable default except K (or KMin/KMax), which must be set.
type RunConfig struct {
	// Kind selects the sampler: "cluster" (default) or "sequential".
	Kind string `json:"kind,omitempty"`
	// P is the number of simulated PEs of a cluster run (default 4).
	P int `json:"p,omitempty"`
	// K is the sample size; KMin/KMax switch a cluster run to the paper's
	// variable-size mode (Sec 4.4) and make K ignored.
	K    int `json:"k,omitempty"`
	KMin int `json:"k_min,omitempty"`
	KMax int `json:"k_max,omitempty"`
	// Uniform selects unweighted sampling (weights ignored). The default
	// is weighted sampling, the paper's main setting.
	Uniform bool `json:"uniform,omitempty"`
	// Algorithm is "ours" (distributed, default) or "gather"; Strategy is
	// "single-pivot" (default), "multi-pivot" (with Pivots), or
	// "random-dist". Both are cluster-only knobs and ignored otherwise.
	Algorithm reservoir.Algorithm   `json:"algorithm,omitempty"`
	Strategy  reservoir.SelStrategy `json:"strategy,omitempty"`
	Pivots    int                   `json:"pivots,omitempty"`
	// LocalThreshold toggles the first-batch local thresholding of Sec 5.
	LocalThreshold bool `json:"local_threshold,omitempty"`
	// Shards fixes the logical scan-shard count (cluster runs; part of
	// the sampling stream's identity, 0 means 1). Pipeline defers each
	// round's selection so the next scan can overlap it. See DESIGN.md
	// §2.6.
	Shards   int  `json:"shards,omitempty"`
	Pipeline bool `json:"pipeline,omitempty"`
	// Seed drives all run randomness (0 is a valid seed).
	Seed uint64 `json:"seed,omitempty"`
	// AlphaNS/BetaNS override the simulated network cost parameters.
	AlphaNS float64 `json:"alpha_ns,omitempty"`
	BetaNS  float64 `json:"beta_ns,omitempty"`
	// QueueDepth bounds this run's ingest queue (jobs, not rounds);
	// 0 uses the server default. A full queue rejects ingest with 429.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// IngestRequest is the JSON body of POST /v1/runs/{id}/batches: either
// explicit per-PE batches (len must equal the run's p) or a synthetic
// workload spec, not both.
type IngestRequest struct {
	Batches   [][]WireItem   `json:"batches,omitempty"`
	Synthetic *SyntheticSpec `json:"synthetic,omitempty"`
}

// SyntheticSpec asks the server to generate mini-batches itself using the
// paper's workload generators — the service analogue of the experiment
// drivers, and the cheapest way to push large rounds through a run.
type SyntheticSpec struct {
	// Source is "uniform" (default), "skewed", or "pareto". Mutually
	// exclusive with Scenario.
	Source string `json:"source,omitempty"`
	// Scenario selects a composed realistic workload (heavy-tailed
	// weight laws, bursty arrivals, per-PE skew, drift — see
	// internal/workload/scenario) instead of a primitive source.
	// BatchLen then acts as the mean items per PE per round, modulated
	// by the scenario's arrival process and rank skew. Streams stay
	// deterministic in (seed, pe, round), so scenario ingest replays
	// identically under reservoir-verify -match.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// BatchLen is the number of items per PE per round.
	BatchLen int `json:"batch_len"`
	// Rounds is the number of mini-batch rounds to run (default 1).
	Rounds int `json:"rounds,omitempty"`
	// Seed overrides the workload seed (default derives from the run seed).
	Seed uint64 `json:"seed,omitempty"`
	// Lo/Hi bound uniform weights (default (0, 100], the paper's range).
	Lo float64 `json:"lo,omitempty"`
	Hi float64 `json:"hi,omitempty"`
	// Shape is the Pareto tail index (default 1.5).
	Shape float64 `json:"shape,omitempty"`
	// BaseMean/RoundInc/RankInc/SD parameterize the skewed source.
	BaseMean float64 `json:"base_mean,omitempty"`
	RoundInc float64 `json:"round_inc,omitempty"`
	RankInc  float64 `json:"rank_inc,omitempty"`
	SD       float64 `json:"sd,omitempty"`
}

// NetworkStats mirrors the active transport's traffic counters (for
// simulated clusters, Bytes is Words*8).
type NetworkStats struct {
	Messages int64 `json:"messages"`
	Words    int64 `json:"words"`
	Bytes    int64 `json:"bytes,omitempty"`
}

// TimingStats is the per-phase virtual-time breakdown (Figure 6 phases).
type TimingStats struct {
	ScanNS      float64 `json:"scan_ns"`
	SelectNS    float64 `json:"select_ns"`
	ThresholdNS float64 `json:"threshold_ns"`
	GatherNS    float64 `json:"gather_ns"`
	TotalNS     float64 `json:"total_ns"`
}

// Stats is the GET /v1/runs/{id}/stats response. Everything except the
// queue fields describes the state as of the last completed round (the
// atomically published snapshot); QueueLen, QueueCap, and PendingRounds
// are read live from the ingest queue.
type Stats struct {
	ID             string        `json:"id"`
	Kind           string        `json:"kind"`
	P              int           `json:"p"`
	Rounds         int           `json:"rounds"`
	SampleSize     int           `json:"sample_size"`
	Threshold      float64       `json:"threshold"`
	HaveThreshold  bool          `json:"have_threshold"`
	ItemsProcessed int64         `json:"items_processed"`
	WeightSeen     float64       `json:"weight_seen,omitempty"`
	Inserted       int64         `json:"inserted,omitempty"`
	Selections     int64         `json:"selections,omitempty"`
	SelectionDepth int64         `json:"selection_rounds,omitempty"`
	VirtualTimeNS  float64       `json:"virtual_time_ns,omitempty"`
	Network        *NetworkStats `json:"network,omitempty"`
	Timing         *TimingStats  `json:"timing,omitempty"`
	// QueueLen is the number of ingest jobs waiting on the run's queue;
	// QueueCap is the queue's capacity; PendingRounds is the number of
	// rounds enqueued (or in flight) but not yet completed.
	QueueLen      int   `json:"queue_len"`
	QueueCap      int   `json:"queue_cap"`
	PendingRounds int64 `json:"pending_rounds,omitempty"`
}

// apiError carries an HTTP status through the run-layer call chain.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

// APIErrorCode returns the HTTP status carried by a service error, or
// fallback when err is not a service API error.
func APIErrorCode(err error, fallback int) int {
	var api *apiError
	if errors.As(err, &api) {
		return api.code
	}
	return fallback
}

func badRequestf(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// snapshot is the immutable read view of a run, replaced wholesale by the
// ingest worker after every completed round. Readers must not mutate
// items.
type snapshot struct {
	stats Stats
	items []WireItem
}

// Run is one hosted sampler instance. Its sampler is the adapter newRun
// picked for cfg.Kind, fixed at creation. After start, the sampler and
// rounds are owned exclusively by the worker goroutine; all other
// goroutines observe the run only through the atomic snapshot and the
// queue.
type Run struct {
	id  string
	cfg RunConfig

	s      sampler
	rounds int // completed rounds, for every kind

	// Ingest queue. qmu only guards the closed flag handshake between
	// enqueuers and the worker's final drain; the channel itself carries
	// the jobs.
	queue   chan *ingestJob
	qmu     sync.Mutex
	qclosed bool
	pending atomic.Int64 // rounds enqueued but not yet completed
	// roundNS is an exponentially-weighted average of recent round
	// durations in nanoseconds — the drain-rate estimate behind 429
	// Retry-After hints. Written only by the worker goroutine.
	roundNS atomic.Uint64

	// Worker lifecycle: ctx is canceled on run deletion or server
	// shutdown; workerDone closes when the worker goroutine has exited.
	ctx        context.Context
	cancel     context.CancelFunc
	workerDone chan struct{}

	// snap is the atomically published read view (never nil after newRun).
	snap atomic.Pointer[snapshot]

	// Persistence (nil without a store). slots is the run's boundary slot
	// ring; only the worker goroutine (and creation or recovery, before
	// the worker starts) touches it. broken is set by the worker when a
	// failed slot write could not be rolled back: the sampler may then be
	// ahead of disk, so every later round is refused.
	slots  *store.Slots
	broken error
	// logger reports persistence problems from the worker (never nil).
	logger *slog.Logger

	// Per-run /metrics series (nil without instrumentation; the metrics
	// types are nil-receiver no-ops). Set by the server right after
	// newRun, removed again when the run is deleted.
	mBatches      *metrics.Counter   // ingest jobs accepted onto the queue
	mRejected     *metrics.Counter   // ingest jobs rejected with 429
	mRoundSeconds *metrics.Histogram // wall time per completed round

	// roundHook, when non-nil, runs before each round on the worker
	// goroutine. Test-only: lets tests hold the worker busy
	// deterministically.
	roundHook func()
	// slotHook, when non-nil, runs before each boundary slot write on the
	// worker goroutine; an error fails the write. Test-only: injects
	// storage failures.
	slotHook func() error
}

// newRun validates cfg and builds the sampler; queueDepth is the server
// default for a zero cfg.QueueDepth.
func newRun(id string, cfg RunConfig, queueDepth int) (*Run, error) {
	if cfg.Kind == "" {
		cfg.Kind = KindCluster
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = queueDepth
	}
	if cfg.QueueDepth < 1 || cfg.QueueDepth > maxQueueDepth {
		return nil, badRequestf("queue_depth must be in [1, %d], got %d", maxQueueDepth, cfg.QueueDepth)
	}
	r := &Run{id: id, logger: slog.New(slog.DiscardHandler)}
	switch cfg.Kind {
	case KindCluster:
		if cfg.P == 0 {
			cfg.P = 4
		}
		if cfg.P < 1 || cfg.P > maxPEs {
			return nil, badRequestf("p must be in [1, %d], got %d", maxPEs, cfg.P)
		}
		cs, err := newClusterSampler(cfg)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		r.s = cs
	case KindSequential:
		if cfg.P > 1 {
			return nil, badRequestf("sequential runs have a single stream; p must be 0 or 1")
		}
		cfg.P = 1
		if cfg.KMin != 0 || cfg.KMax != 0 {
			return nil, badRequestf("variable sample size (k_min/k_max) requires a cluster run")
		}
		if cfg.K < 1 {
			return nil, badRequestf("sample size k must be >= 1, got %d", cfg.K)
		}
		if cfg.Uniform {
			s := reservoir.NewUniform(cfg.K, cfg.Seed)
			r.s = &streamSampler{s: s, tag: snapKindSeqU, fill: func(st *Stats) {
				st.ItemsProcessed = s.Seen()
				st.SampleSize = int(min(int64(cfg.K), st.ItemsProcessed))
				st.Threshold, st.HaveThreshold = s.Threshold()
			}}
			break
		}
		s := reservoir.NewWeighted(cfg.K, cfg.Seed)
		r.s = &streamSampler{s: s, tag: snapKindSeqW, fill: func(st *Stats) {
			st.ItemsProcessed, st.WeightSeen = s.Seen()
			st.SampleSize = int(min(int64(cfg.K), st.ItemsProcessed))
			st.Threshold, st.HaveThreshold = s.Threshold()
		}}
	default:
		return nil, badRequestf("unknown kind %q (want %q or %q)",
			cfg.Kind, KindCluster, KindSequential)
	}
	r.cfg = cfg
	r.queue = make(chan *ingestJob, cfg.QueueDepth)
	// items must be non-nil so GET .../sample serves "items": [] (not
	// null) before the first round.
	r.snap.Store(&snapshot{stats: r.buildStats(), items: []WireItem{}})
	return r, nil
}

// start launches the ingest worker. ctx (the server's shutdown context)
// and deletion both cancel it; done is called when the worker exits.
func (r *Run) start(ctx context.Context, done func()) {
	r.ctx, r.cancel = context.WithCancel(ctx)
	r.workerDone = make(chan struct{})
	go func() {
		defer done()
		r.work()
	}()
}

// stats returns the last published snapshot's stats plus live queue gauges.
func (r *Run) stats() Stats {
	st := r.snap.Load().stats
	st.QueueLen = len(r.queue)
	st.QueueCap = cap(r.queue)
	st.PendingRounds = r.pending.Load()
	return st
}

// sample returns the last published sample and its round number. The
// returned slice is shared and must not be mutated.
func (r *Run) sample() ([]WireItem, int) {
	s := r.snap.Load()
	return s.items, s.stats.Rounds
}

// Server is the run store plus the HTTP surface.
type Server struct {
	mu     sync.RWMutex
	runs   map[string]*Run
	nextID int64
	closed bool

	// shutdownCtx is canceled by Close; it stops every run's ingest
	// worker at the next round boundary.
	shutdownCtx context.Context
	shutdown    context.CancelFunc
	closeOnce   sync.Once
	workers     sync.WaitGroup
	cleanups    sync.WaitGroup // deleted runs' pending disk removals
	queueDepth  int
	logger      *slog.Logger

	// metrics is the server's Prometheus registry, served at GET /metrics
	// (never nil; WithMetrics substitutes a shared registry).
	metrics *metrics.Registry

	// store, when non-nil, persists every run (config plus a ring of
	// round-boundary slots) under a data directory.
	store *store.Store
}

// Option customizes New.
type Option func(*Server)

// WithLogger routes service logs (run lifecycle events) to log as
// structured records; the server adds a component attr.
func WithLogger(log *slog.Logger) Option {
	return func(s *Server) {
		if log != nil {
			s.logger = log.With("component", "service")
		}
	}
}

// WithMetrics substitutes reg for the server's own registry, so the
// process can aggregate service metrics with other subsystems (e.g. the
// store's slot instrumentation) on one /metrics endpoint.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.metrics = reg
		}
	}
}

// Metrics returns the server's metrics registry (e.g. to pass to
// store.WithMetrics or to mount on another mux).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// WithQueueDepth sets the default per-run ingest queue depth (jobs).
// Individual runs may override it with RunConfig.QueueDepth.
func WithQueueDepth(n int) Option {
	return func(s *Server) {
		if n >= 1 && n <= maxQueueDepth {
			s.queueDepth = n
		}
	}
}

// WithStore enables persistence: every run's config and, after each
// round, its whole sampler state at that round boundary are written
// under the store's data directory, and Recover rebuilds all runs from
// them after a restart. The caller retains ownership of st and closes it
// after Server.Close.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.store = st }
}

// New returns an empty service. With WithStore, call Recover before
// serving to rebuild persisted runs.
func New(opts ...Option) *Server {
	s := &Server{
		runs:       make(map[string]*Run),
		queueDepth: defaultQueueSize,
		logger:     slog.New(slog.DiscardHandler),
		metrics:    metrics.NewRegistry(),
	}
	s.shutdownCtx, s.shutdown = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	s.metrics.GaugeFunc("reservoir_runs", "Live sampler runs hosted by the service.",
		nil, nil, func() float64 { return float64(s.runCount()) })
	return s
}

// registerRunMetrics wires a run's per-run series into the registry.
// Counter/histogram handles live on the Run (hot-path increments);
// queue gauges are read at scrape time from the queue itself.
func (s *Server) registerRunMetrics(r *Run) {
	runLabel := []string{"run"}
	id := r.id
	r.mBatches = s.metrics.NewCounter("reservoir_ingest_batches_total",
		"Ingest jobs accepted onto a run's queue.", runLabel, id)
	r.mRejected = s.metrics.NewCounter("reservoir_ingest_rejected_total",
		"Ingest jobs rejected with 429 (queue full).", runLabel, id)
	r.mRoundSeconds = s.metrics.NewHistogram("reservoir_round_duration_seconds",
		"Wall time per completed ingest round (boundary slot write included).",
		metrics.DefBuckets, runLabel, id)
	s.metrics.CounterFunc("reservoir_ingest_items_total",
		"Items processed by the run's sampler.", runLabel, []string{id},
		func() float64 { return float64(r.snap.Load().stats.ItemsProcessed) })
	s.metrics.GaugeFunc("reservoir_queue_depth",
		"Ingest jobs waiting on the run's queue.", runLabel, []string{id},
		func() float64 { return float64(len(r.queue)) })
	s.metrics.GaugeFunc("reservoir_pending_rounds",
		"Rounds enqueued (or in flight) but not yet completed.", runLabel, []string{id},
		func() float64 { return float64(r.pending.Load()) })
}

// Close stops every ingest worker at the next round boundary (queued
// jobs are failed, waiters get 503), rejects further run creation, and
// waits for the workers to exit, so an enclosing http.Server.Shutdown can
// drain without being held open by long-lived work.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.shutdown()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.workers.Wait()
		s.cleanups.Wait()
	})
}

// createRun allocates an ID, builds the sampler, stores the run, and
// starts its ingest worker.
func (s *Server) createRun(cfg RunConfig) (*Run, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	s.nextID++
	id := fmt.Sprintf("r%d", s.nextID)
	nextID := s.nextID
	s.mu.Unlock()

	run, err := newRun(id, cfg, s.queueDepth)
	if err != nil {
		return nil, err
	}
	run.logger = s.logger.With("run", id)
	// discard undoes the on-disk state if the run cannot be registered.
	discard := func() {
		if run.slots != nil {
			run.slots.Close()
			s.store.DeleteRun(id)
		}
	}
	if s.store != nil {
		if err := s.persistNewRun(run, nextID); err != nil {
			discard()
			return nil, &apiError{code: http.StatusInternalServerError, msg: fmt.Sprintf("persistence failure: %v", err)}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		discard()
		return nil, &apiError{code: http.StatusServiceUnavailable, msg: "server is shutting down"}
	}
	if len(s.runs) >= maxRuns {
		s.mu.Unlock()
		discard()
		return nil, &apiError{
			code: http.StatusTooManyRequests,
			msg:  fmt.Sprintf("run limit (%d) reached; delete a run first", maxRuns),
		}
	}
	s.runs[id] = run
	s.workers.Add(1)
	run.start(s.shutdownCtx, s.workers.Done)
	s.mu.Unlock()
	// Metrics register after the run is committed to the map, so a failed
	// create leaves no orphan series (IDs are never reused). The counter
	// handles are nil-safe for the instant before registration completes.
	s.registerRunMetrics(run)
	s.logger.Info("created run", "run", id, "kind", run.cfg.Kind,
		"p", run.cfg.P, "k", run.cfg.K, "queue", run.cfg.QueueDepth)
	return run, nil
}

// persistNewRun persists the ID allocation first (IDs are never reused,
// even across restarts), then the run's directory with its normalized
// config — what recovery rebuilds the sampler from — and boundary 0.
func (s *Server) persistNewRun(run *Run, nextID int64) error {
	if err := s.store.SetNextID(nextID); err != nil {
		return err
	}
	cfgJSON, err := json.Marshal(run.cfg)
	if err != nil {
		return err
	}
	if run.slots, err = s.store.CreateSlots(run.id, cfgJSON); err != nil {
		return err
	}
	snap, err := run.boundary()
	if err != nil {
		return err
	}
	return run.slots.Write(snap)
}

// lookup returns the run with the given ID.
func (s *Server) lookup(id string) (*Run, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.runs[id]
	return r, ok
}

// deleteRun removes a run and stops its worker, failing any queued jobs.
// It does not wait for the worker: an in-flight round finishes in the
// background at its own pace. With a store, the run's on-disk state
// (config and slots) is removed as soon as the worker has exited and
// released its slot ring.
func (s *Server) deleteRun(id string) bool {
	s.mu.Lock()
	r, ok := s.runs[id]
	if ok {
		delete(s.runs, id)
	}
	// Register the disk cleanup while still holding mu: Close sets closed
	// under mu before it calls cleanups.Wait, so Add here can never race
	// that Wait (the WaitGroup contract), and Close always waits for every
	// registered removal — a run the API confirmed deleted must not
	// resurrect from leftover files on the next recovery.
	async := ok && r.slots != nil && !s.closed
	if async {
		s.cleanups.Add(1)
	}
	s.mu.Unlock()
	if !ok {
		return false
	}
	r.cancel()
	s.metrics.Unregister("run", id)
	removeDisk := func() {
		<-r.workerDone // the worker closes the slot ring on exit
		if err := s.store.DeleteRun(id); err != nil {
			s.logger.Error("delete run disk state failed", "run", id, "err", err)
		}
	}
	switch {
	case async:
		go func() {
			defer s.cleanups.Done()
			removeDisk()
		}()
	case r.slots != nil:
		// Close is already draining: remove synchronously on this handler
		// goroutine (the worker exits promptly on the canceled context).
		removeDisk()
	}
	s.logger.Info("deleted run", "run", id)
	return true
}

// listRuns snapshots the stats of all runs, ordered by ID. Pure snapshot
// reads: listing never blocks any run's ingest.
func (s *Server) listRuns() []Stats {
	s.mu.RLock()
	runs := make([]*Run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.RUnlock()
	out := make([]Stats, len(runs))
	for i, r := range runs {
		out[i] = r.stats()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runCount returns the number of live runs.
func (s *Server) runCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.runs)
}

// RunCount returns the number of live runs (e.g. to report how many were
// recovered at startup).
func (s *Server) RunCount() int { return s.runCount() }
