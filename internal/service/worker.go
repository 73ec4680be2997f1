package service

import (
	"fmt"
	"net/http"
	"time"
)

// work is the run's ingest worker loop: the sole goroutine that touches
// the sampler. It pulls jobs off the bounded queue, runs them one whole
// round at a time, publishes a fresh snapshot after every round, and on
// cancellation (run deletion or server shutdown) fails all still-queued
// jobs so no waiter is left hanging. When the run is persisted, the worker
// also owns its slot ring: the boundary write after each round and the
// ring's release on exit — persistence never adds a lock to the ingest
// path.
func (r *Run) work() {
	defer close(r.workerDone)
	defer func() {
		if r.slots != nil {
			if err := r.slots.Close(); err != nil {
				r.logger.Error("closing slots failed", "err", err)
			}
		}
	}()
	for {
		select {
		case <-r.ctx.Done():
			r.drainQueue()
			return
		case job := <-r.queue:
			if r.ctx.Err() != nil {
				// The run was canceled while this job sat on the queue
				// (select picks arms randomly when both are ready): it
				// never started, so fail it like the drained jobs and
				// stop.
				r.failJob(job)
				r.drainQueue()
				return
			}
			res := r.process(job)
			if job.buf != nil {
				job.buf.release()
			}
			job.done <- res
		}
	}
}

// failJob rejects a job that will never run (run deleted or server shut
// down before processing started).
func (r *Run) failJob(job *ingestJob) {
	r.pending.Add(-int64(job.rounds))
	if job.buf != nil {
		job.buf.release()
	}
	job.done <- ingestResult{err: &apiError{
		code: http.StatusGone,
		msg:  "run was deleted (or the server shut down) before the batch was processed",
	}}
}

// drainQueue marks the queue closed (so no further jobs can be enqueued)
// and fails everything still on it. Because enqueue checks qclosed under
// qmu before sending, the non-blocking drain loop observes every job that
// ever made it onto the queue.
func (r *Run) drainQueue() {
	r.qmu.Lock()
	r.qclosed = true
	r.qmu.Unlock()
	for {
		select {
		case job := <-r.queue:
			r.failJob(job)
		default:
			return
		}
	}
}

// process runs one job to completion, checking for cancellation at every
// round boundary. The returned result carries the stats after the job's
// last completed round. The pending gauge drops by one as each round
// completes (so published snapshots are consistent with it); the deferred
// correction settles whatever a cancellation or error left unrun.
func (r *Run) process(job *ingestJob) (res ingestResult) {
	var st Stats
	completed := 0
	defer func() { r.pending.Add(-int64(job.rounds - completed)) }()
	for i := 0; i < job.rounds; i++ {
		if err := firstErr(r.ctx.Err(), job.ctx.Err()); err != nil {
			return ingestResult{st: st, err: &apiError{
				code: http.StatusServiceUnavailable,
				msg:  fmt.Sprintf("ingest stopped after %d of %d rounds: %v", i, job.rounds, err),
			}}
		}
		if r.broken != nil {
			return ingestResult{st: st, err: &apiError{code: http.StatusInternalServerError, msg: r.broken.Error()}}
		}
		if h := r.roundHook; h != nil {
			h()
		}
		roundStart := time.Now()
		r.s.round(job.src, r.rounds)
		r.rounds++
		// The boundary is durable before anything observes the round. A
		// job the queue rejected (429) never gets here, so backpressure
		// writes no slot.
		if err := r.persistBoundary(); err != nil {
			return ingestResult{st: st, err: err}
		}
		r.pending.Add(-1)
		completed++
		st = r.publishSnapshot()
		roundDur := time.Since(roundStart)
		r.observeRound(roundDur)
		r.mRoundSeconds.Observe(roundDur.Seconds())
	}
	return ingestResult{st: st}
}

// observeRound folds one completed round's duration into the drain-rate
// EMA behind Retry-After hints (α = 1/8: smooth enough to ignore one
// slow round, fresh enough to track a workload shift within ~a dozen
// rounds). Only the worker goroutine writes it.
func (r *Run) observeRound(d time.Duration) {
	if d <= 0 {
		return
	}
	prev := r.roundNS.Load()
	if prev == 0 {
		r.roundNS.Store(uint64(d))
		return
	}
	r.roundNS.Store(prev - prev/8 + uint64(d)/8)
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// publishSnapshot rebuilds the run's read view — stats plus the current
// sample — and stores it atomically. The sample is collected
// communication-free (Cluster.SampleSnapshot / the sequential samplers'
// Sample), so observing a run does not perturb its virtual clocks or
// simulated traffic counters. The sample is taken first: on a pipelined
// cluster it completes the round's deferred selection, and the stats must
// report the threshold and counters of that completed round, as a
// persisted run's do (its boundary write completes the selection too).
func (r *Run) publishSnapshot() Stats {
	items := r.s.sample()
	st := r.buildStats()
	out := make([]WireItem, len(items))
	for i, it := range items {
		out[i] = WireItem{W: it.W, ID: it.ID}
	}
	r.snap.Store(&snapshot{stats: st, items: out})
	st.QueueLen = len(r.queue)
	st.QueueCap = cap(r.queue)
	st.PendingRounds = r.pending.Load()
	return st
}

// buildStats snapshots the sampler's observable state. Only the worker
// (or newRun, before the worker starts) may call it.
func (r *Run) buildStats() Stats {
	st := Stats{ID: r.id, Kind: r.cfg.Kind, P: r.cfg.P, Rounds: r.rounds}
	r.s.stats(&st)
	return st
}
