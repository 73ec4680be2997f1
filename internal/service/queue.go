package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"reservoir"
)

// ingestJob is one queued unit of ingest work: either a single explicit
// round (batches already validated and converted onto pooled buffers,
// served through a batchSource) or a multi-round synthetic spec.
type ingestJob struct {
	src    reservoir.Source // the job's batches, explicit or synthetic
	buf    *batchBuf        // pooled backing storage of explicit batches
	rounds int              // rounds this job runs (1 for explicit)

	// ctx additionally bounds the job (the request context for wait-mode
	// clients). The run's own lifecycle context is always checked too.
	ctx context.Context

	// done receives exactly one result: when the job completes, fails, or
	// is dropped because the run was deleted or the server shut down.
	done chan ingestResult
}

// ingestResult is delivered on ingestJob.done.
type ingestResult struct {
	st  Stats
	err error
}

// batchBuf is the pooled backing storage of one explicit ingest round: a
// single flat item buffer sliced into per-PE batches. Recycling these
// keeps the hot ingest path free of per-request item allocations; the
// samplers copy items into their reservoirs and never retain the batch
// slices, so the buffer can be reused as soon as the round has run.
type batchBuf struct {
	items []reservoir.Item
	sb    []reservoir.SliceBatch
}

var batchBufPool = sync.Pool{New: func() any { return new(batchBuf) }}

func (b *batchBuf) release() {
	batchBufPool.Put(b)
}

// buildJob validates an IngestRequest against the run's configuration and
// converts it into a queueable job. All validation happens here, before
// the job is enqueued, so async (202) submissions still fail fast with
// 400s; the worker only ever sees well-formed work.
func (r *Run) buildJob(req IngestRequest) (*ingestJob, error) {
	switch {
	case req.Synthetic != nil && len(req.Batches) > 0:
		return nil, badRequestf("provide either batches or synthetic, not both")
	case req.Synthetic != nil:
		return r.buildSynthetic(*req.Synthetic)
	case len(req.Batches) > 0:
		return r.buildExplicit(req.Batches)
	default:
		return nil, badRequestf("empty ingest: provide batches or synthetic")
	}
}

func (r *Run) buildExplicit(batches [][]WireItem) (*ingestJob, error) {
	if len(batches) != r.cfg.P {
		return nil, badRequestf("got %d batches, run has p=%d PEs", len(batches), r.cfg.P)
	}
	total := 0
	for _, b := range batches {
		total += len(b)
	}
	buf := batchBufPool.Get().(*batchBuf)
	if cap(buf.items) < total {
		buf.items = make([]reservoir.Item, total)
	}
	if cap(buf.sb) < len(batches) {
		buf.sb = make([]reservoir.SliceBatch, len(batches))
	}
	items := buf.items[:total]
	sb := buf.sb[:len(batches)]
	off := 0
	for i, b := range batches {
		for j, it := range b {
			if !r.cfg.Uniform && !(it.W > 0) {
				buf.release()
				return nil, badRequestf("batch %d item %d: weight must be > 0 for weighted sampling", i, j)
			}
			items[off+j] = reservoir.Item{W: it.W, ID: it.ID}
		}
		sb[i] = reservoir.SliceBatch(items[off : off+len(b)])
		off += len(b)
	}
	return &ingestJob{
		src:    batchSource(sb),
		buf:    buf,
		rounds: 1,
		ctx:    context.Background(),
		done:   make(chan ingestResult, 1),
	}, nil
}

func (r *Run) buildSynthetic(spec SyntheticSpec) (*ingestJob, error) {
	if spec.BatchLen < 1 || spec.BatchLen > maxSynthBatch {
		return nil, badRequestf("batch_len must be in [1, %d], got %d", maxSynthBatch, spec.BatchLen)
	}
	rounds := spec.Rounds
	if rounds == 0 {
		rounds = 1
	}
	if rounds < 1 || rounds > maxSynthRounds {
		return nil, badRequestf("rounds must be in [1, %d], got %d", maxSynthRounds, rounds)
	}
	src, err := spec.BuildSource(r.cfg)
	if err != nil {
		return nil, err
	}
	return &ingestJob{
		src:    src,
		rounds: rounds,
		ctx:    context.Background(),
		done:   make(chan ingestResult, 1),
	}, nil
}

// BuildSource builds the workload generator for a synthetic ingest.
// Batches are derived from (seed, pe, round), so repeated requests against
// the same run continue the stream rather than replaying it. Exported
// because the multi-process node mode (internal/nodesvc) and
// reservoir-verify's -match replay must generate the byte-identical
// stream; only cfg.Seed and cfg.Uniform are consulted.
func (s SyntheticSpec) BuildSource(cfg RunConfig) (reservoir.Source, error) {
	seed := s.Seed
	if seed == 0 {
		seed = cfg.Seed + 0x9E3779B97F4A7C15
	}
	if s.Scenario != nil {
		if s.Source != "" {
			return nil, badRequestf("provide either source or scenario, not both")
		}
		src, err := s.Scenario.Source(seed, s.BatchLen)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		return src, nil
	}
	switch s.Source {
	case "", "uniform":
		lo, hi := s.Lo, s.Hi
		if lo == 0 && hi == 0 {
			lo, hi = 0, 100 // the paper's weight range
		}
		if hi <= lo {
			return nil, badRequestf("uniform source needs hi > lo, got (%g, %g]", lo, hi)
		}
		if !cfg.Uniform && lo < 0 {
			return nil, badRequestf("uniform source on a weighted run needs lo >= 0, got %g", lo)
		}
		// U01 draws are at least 2^-53, so this is the smallest weight.
		if !cfg.Uniform && lo+0x1p-53*(hi-lo) <= 0 {
			return nil, badRequestf("uniform source on a weighted run needs weights above 0; hi %g underflows", hi)
		}
		return reservoir.UniformSource{Seed: seed, BatchLen: s.BatchLen, Lo: lo, Hi: hi}, nil
	case "skewed":
		base, sd := s.BaseMean, s.SD
		if base == 0 {
			base = 50
		}
		if sd == 0 {
			sd = 10
		}
		return reservoir.SkewedSource{
			Seed: seed, BatchLen: s.BatchLen,
			BaseMean: base, RoundInc: s.RoundInc, RankInc: s.RankInc, SD: sd,
		}, nil
	case "pareto":
		shape := s.Shape
		if shape == 0 {
			shape = 1.5
		}
		return reservoir.ParetoSource{Seed: seed, BatchLen: s.BatchLen, Shape: shape}, nil
	default:
		return nil, badRequestf("unknown synthetic source %q (want uniform, skewed, or pareto)", s.Source)
	}
}

// enqueue places a job on the run's bounded queue without blocking. A full
// queue is the backpressure signal (429, the client should retry); a
// closed queue means the run was deleted or the server is shutting down
// (410). On success the job's rounds are added to the pending gauge.
func (r *Run) enqueue(job *ingestJob) error {
	r.qmu.Lock()
	defer r.qmu.Unlock()
	if r.qclosed {
		if job.buf != nil {
			job.buf.release()
		}
		return &apiError{code: http.StatusGone, msg: "run was deleted"}
	}
	select {
	case r.queue <- job:
		r.pending.Add(int64(job.rounds))
		r.mBatches.Inc()
		return nil
	default:
		if job.buf != nil {
			job.buf.release()
		}
		r.mRejected.Inc()
		return &apiError{
			code: http.StatusTooManyRequests,
			msg: fmt.Sprintf("ingest queue is full (%d/%d jobs); retry later or create the run with a larger queue_depth",
				len(r.queue), cap(r.queue)),
		}
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from the run's
// observed drain rate instead of a hardcoded constant: a queue slot
// frees when the job at the head finishes, which takes about (pending
// rounds / queued jobs) rounds at the worker's EMA round duration. The
// hint is clamped to [1, 60] — at least a second so clients cannot
// hot-spin on a deep queue, at most a minute so one pathological round
// does not park them forever.
func (r *Run) retryAfterSeconds() int {
	ema := r.roundNS.Load()
	if ema == 0 {
		return 1 // no completed round yet — nothing better than the old default
	}
	jobs := uint64(len(r.queue)) + 1 // queued jobs plus the one in flight
	pending := r.pending.Load()
	if pending < 1 {
		pending = 1
	}
	rounds := (uint64(pending) + jobs - 1) / jobs
	secs := (rounds*ema + uint64(time.Second) - 1) / uint64(time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}
