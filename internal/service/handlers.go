package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"reservoir/internal/store"
)

// Handler returns the service's HTTP routes (full reference: docs/API.md):
//
//	POST   /v1/runs                    create a run from a RunConfig
//	GET    /v1/runs                    stats of all runs
//	POST   /v1/runs/{id}/batches       enqueue mini-batch rounds (IngestRequest);
//	                                   202 async by default, 200 with ?wait=true
//	GET    /v1/runs/{id}/sample        current global k-sample (snapshot read)
//	GET    /v1/runs/{id}/stats         stats snapshot (never blocks ingest)
//	DELETE /v1/runs/{id}               delete a run
//	GET    /healthz                    liveness
//	GET    /metrics                    Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.HandleFunc("POST /v1/runs", s.handleCreateRun)
	mux.HandleFunc("GET /v1/runs", s.handleListRuns)
	mux.HandleFunc("POST /v1/runs/{id}/batches", s.handleIngest)
	mux.HandleFunc("GET /v1/runs/{id}/sample", s.handleSample)
	mux.HandleFunc("GET /v1/runs/{id}/stats", s.handleStats)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleDelete)
	return mux
}

// CreateResponse is the POST /v1/runs response body.
type CreateResponse struct {
	ID string `json:"id"`
	// Config echoes the normalized configuration (defaults filled in).
	Config RunConfig `json:"config"`
}

// IngestAccepted is the 202 response body of asynchronous ingest: the
// request was validated and enqueued, but not yet processed. Poll
// GET .../stats to observe completion: pending_rounds drops to 0 when the
// queue has drained.
type IngestAccepted struct {
	ID string `json:"id"`
	// Rounds is the number of rounds this request enqueued.
	Rounds int `json:"enqueued_rounds"`
	// QueueLen and PendingRounds are the queue gauges right after the
	// enqueue (jobs waiting, rounds not yet completed).
	QueueLen      int   `json:"queue_len"`
	PendingRounds int64 `json:"pending_rounds"`
}

// SampleResponse is the GET /v1/runs/{id}/sample response body.
type SampleResponse struct {
	ID     string     `json:"id"`
	Rounds int        `json:"rounds"`
	Count  int        `json:"count"`
	Items  []WireItem `json:"items"`
}

// ListResponse is the GET /v1/runs response body.
type ListResponse struct {
	Runs []Stats `json:"runs"`
}

// HealthResponse is the GET /healthz response body. Store is present only
// when the server runs with a persistence store (-data) and reports its
// directory, fsync policy, open slot rings and boundary writes.
type HealthResponse struct {
	Status string        `json:"status"`
	Runs   int           `json:"runs"`
	Store  *store.Status `json:"store,omitempty"`
}

// WriteJSON writes v as a JSON response with the given status code
// (shared with the node-mode control API in internal/nodesvc). v is
// encoded before the header is written, so a value that cannot be
// encoded answers 500 with the error envelope, not an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		WriteErrorf(w, http.StatusInternalServerError, "encoding the response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// The response is committed; a failed write has no one to report to.
	_, _ = w.Write(append(body, '\n'))
}

// WriteErrorf writes the service's JSON error envelope.
func WriteErrorf(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeError maps run-layer errors to HTTP responses.
func writeError(w http.ResponseWriter, err error) {
	var api *apiError
	if errors.As(err, &api) {
		WriteErrorf(w, api.code, "%s", api.msg)
		return
	}
	WriteErrorf(w, http.StatusInternalServerError, "%v", err)
}

// DecodeBody reads a request body of at most limit bytes whole into a
// pooled buffer, then strictly decodes the one JSON value in it into v:
// unknown fields and a second value after the first are rejected (shared
// with the node-mode control API in internal/nodesvc). An *IngestRequest
// goes through decodeIngest, whose compact fast path yields exactly the
// values of encoding/json; every other body and type is decoded by
// encoding/json. Errors carry an HTTP status via APIErrorCode:
// 413 for a body over the limit, 400 otherwise.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	d := bodyDecoderPool.Get().(*bodyDecoder)
	defer d.release()
	// The buffer grows with the bytes that arrive, not with the declared
	// Content-Length, which a client could set far above what it sends.
	d.body.Reset()
	if _, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit),
			}
		}
		return badRequestf("invalid request body: %v", err)
	}
	var err error
	if req, ok := v.(*IngestRequest); ok {
		err = d.decodeIngest(d.body.Bytes(), req)
	} else {
		err = decodeJSON(d.body.Bytes(), v)
	}
	if err != nil {
		return badRequestf("invalid request body: %v", err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", Runs: s.runCount()}
	if s.store != nil {
		st := s.store.Status()
		resp.Store = &st
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateRun(w http.ResponseWriter, r *http.Request) {
	var cfg RunConfig
	if err := DecodeBody(w, r, maxConfigBytes, &cfg); err != nil {
		writeError(w, err)
		return
	}
	run, err := s.createRun(cfg)
	if err != nil {
		writeError(w, err)
		return
	}
	WriteJSON(w, http.StatusCreated, CreateResponse{ID: run.id, Config: run.cfg})
}

func (s *Server) handleListRuns(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, ListResponse{Runs: s.listRuns()})
}

// lookupRun resolves the {id} path segment, writing a 404 on a miss.
func (s *Server) lookupRun(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	id := r.PathValue("id")
	run, ok := s.lookup(id)
	if !ok {
		WriteErrorf(w, http.StatusNotFound, "no run %q", id)
	}
	return run, ok
}

// handleIngest validates the request, converts it to a job, and enqueues
// it on the run's bounded queue. By default it responds 202 Accepted as
// soon as the job is queued; with ?wait=true it blocks until the job has
// run and responds 200 with the post-round stats. A full queue yields 429
// with a Retry-After hint — the service's explicit backpressure signal.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	var req IngestRequest
	if err := DecodeBody(w, r, maxIngestBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	job, err := run.buildJob(req)
	if err != nil {
		writeError(w, err)
		return
	}
	wait := false
	switch r.URL.Query().Get("wait") {
	case "true", "1":
		wait = true
	}
	if wait {
		// A waiting client's disconnect stops a multi-round job at the
		// next round boundary; async jobs run to completion regardless.
		job.ctx = r.Context()
	}
	if err := run.enqueue(job); err != nil {
		var api *apiError
		if errors.As(err, &api) && api.code == http.StatusTooManyRequests {
			// Derived from the run's drain rate (see retryAfterSeconds) so
			// clients back off proportionally to the actual queue depth.
			w.Header().Set("Retry-After", strconv.Itoa(run.retryAfterSeconds()))
		}
		writeError(w, err)
		return
	}
	if !wait {
		WriteJSON(w, http.StatusAccepted, IngestAccepted{
			ID:            run.id,
			Rounds:        job.rounds,
			QueueLen:      len(run.queue),
			PendingRounds: run.pending.Load(),
		})
		return
	}
	select {
	case res := <-job.done:
		if res.err != nil {
			writeError(w, res.err)
			return
		}
		WriteJSON(w, http.StatusOK, res.st)
	case <-r.Context().Done():
		// Client gone; the worker still finishes or cancels the job on
		// its own (job.ctx is this request's context). Nothing to write.
	}
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	items, rounds := run.sample()
	WriteJSON(w, http.StatusOK, SampleResponse{
		ID: run.id, Rounds: rounds, Count: len(items), Items: items,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookupRun(w, r)
	if !ok {
		return
	}
	WriteJSON(w, http.StatusOK, run.stats())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.deleteRun(id) {
		WriteErrorf(w, http.StatusNotFound, "no run %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
