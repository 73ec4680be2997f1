package service

// Run persistence: with a store, every run owns a ring of boundary slots
// (store.Slots). Creating a run writes boundary 0; after each round it
// applies, the run's worker writes the run's whole sampler state at that
// round boundary into the ring — before the round's read view is
// published and before the job is acknowledged, so an acknowledged round
// survives a process crash, and under -fsync always or interval (both
// fsync every boundary) a power failure.
// Recovery restores the newest valid slot and replays nothing (DESIGN.md
// §6). A slot holds the sampler's own tag and blob: the run's sampler
// adapter writes them (marshal) and refuses any other tag (restore), so
// this file never asks which kind a run is.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"reservoir/internal/store"
)

// Sampler-kind tags stored in boundary slots (opaque bytes to the store).
const (
	snapKindCluster = byte(1) // distributed and gather clusters alike
	snapKindSeqW    = byte(2)
	snapKindSeqU    = byte(3)
	// Tag 4 marked the deleted sliding-window run kind; never reuse it.
)

// boundary serializes the sampler at the current round boundary. Only
// the worker goroutine (or run creation, before the worker starts) may
// call it.
func (r *Run) boundary() (*store.Snapshot, error) {
	kind, blob, err := r.s.marshal()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &store.Snapshot{Round: uint64(r.rounds), Kind: kind, Blob: blob}, nil
}

// persistBoundary writes the boundary the round just applied reached.
// Called by the worker after the round and before it publishes or
// acknowledges anything. A failed write answers 500 and rolls the sampler
// back to the newest boundary on disk through restoreSnapshot — the path
// recovery takes — so memory never runs ahead of disk. If even that
// fails, the run refuses further ingest until a restart recovers it.
func (r *Run) persistBoundary() error {
	if r.slots == nil {
		return nil
	}
	snap, err := r.boundary()
	if err == nil && r.slotHook != nil {
		err = r.slotHook()
	}
	if err == nil {
		err = r.slots.Write(snap)
	}
	if err == nil {
		return nil
	}
	if rerr := r.rollback(); rerr != nil {
		r.broken = fmt.Errorf("boundary write failed (%v) and the rollback to the last boundary on disk failed (%v); restart the server to recover the run", err, rerr)
		r.logger.Error("run disabled", "err", r.broken)
	}
	return &apiError{code: http.StatusInternalServerError, msg: fmt.Sprintf("persistence failure: %v", err)}
}

// rollback restores the newest boundary on disk into the sampler.
func (r *Run) rollback() error {
	snap, err := r.slots.Latest()
	if err != nil {
		return err
	}
	if snap == nil {
		return fmt.Errorf("no slot holds a boundary")
	}
	return r.restoreSnapshot(snap)
}

// Recover rebuilds every persisted run from the store: config, sampler
// state (its newest boundary) and round counter. It must be called before
// the server starts handling requests. Runs that cannot be recovered are
// skipped with a log line, their files left in place for inspection; the
// store itself failing is an error.
func (s *Server) Recover() error {
	if s.store == nil {
		return nil
	}
	ids, err := s.store.ListRuns()
	if err != nil {
		return fmt.Errorf("service: recover: %w", err)
	}
	s.mu.Lock()
	if s.store.NextID() > s.nextID {
		s.nextID = s.store.NextID()
	}
	s.mu.Unlock()
	for _, id := range ids {
		// Never touch the files of a run that is already live (Recover
		// called twice, or after createRun): a second slot handle would
		// race the worker's writes.
		if _, live := s.lookup(id); live {
			s.logger.Warn("recover: run already live, skipped", "run", id)
			continue
		}
		if err := s.recoverRun(id); err != nil {
			s.logger.Error("recover failed; run skipped, files kept", "run", id, "err", err)
		}
	}
	return nil
}

// recoverRun rebuilds one run from its newest boundary and starts its
// worker. A run with no decodable slot is refused: creation writes
// boundary 0, so an empty ring means damage, not a fresh run, and
// resetting it would silently drop acknowledged rounds.
func (s *Server) recoverRun(id string) error {
	cfgJSON, slots, err := s.store.OpenSlots(id)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		slots.Close()
		return err
	}
	var cfg RunConfig
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return fail(fmt.Errorf("config: %w", err))
	}
	run, err := newRun(id, cfg, s.queueDepth)
	if err != nil {
		return fail(fmt.Errorf("rebuild sampler: %w", err))
	}
	snap, err := slots.Latest()
	if err == nil && snap == nil {
		err = fmt.Errorf("no slot holds a decodable boundary")
	}
	if err != nil {
		return fail(err)
	}
	if err := run.restoreSnapshot(snap); err != nil {
		return fail(err)
	}
	run.slots = slots
	run.logger = s.logger.With("run", id)
	// Publish the recovered read view before the worker starts; from then
	// on the worker owns snapshot publication.
	run.publishSnapshot()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fail(fmt.Errorf("server is shutting down"))
	}
	if _, exists := s.runs[id]; exists {
		s.mu.Unlock()
		return fail(fmt.Errorf("run already registered"))
	}
	s.runs[id] = run
	s.workers.Add(1)
	run.start(s.shutdownCtx, s.workers.Done)
	s.mu.Unlock()
	s.registerRunMetrics(run)
	s.logger.Info("recovered run", "run", id, "kind", run.cfg.Kind, "p", run.cfg.P, "rounds", run.rounds)
	return nil
}

// restoreSnapshot loads a boundary into the run's sampler: at recovery
// into the freshly built one, after a failed slot write into the live one.
func (r *Run) restoreSnapshot(sn *store.Snapshot) error {
	if err := r.s.restore(sn); err != nil {
		return fmt.Errorf("restore snapshot: %w", err)
	}
	r.rounds = int(sn.Round)
	return nil
}
