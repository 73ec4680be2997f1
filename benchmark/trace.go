package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"reservoir/internal/transport/tcpnet"
)

// spanKind names what a span covers.
type spanKind uint8

const (
	kindSend  spanKind = iota // tcpnet Send on a rank
	kindRecv                  // tcpnet Recv on a rank: its pre-block flush plus the wait
	kindFlush                 // explicit collective flush on a rank
	kindWrite                 // the benchmark's writer request
	kindRead                  // the benchmark's reader request
	kindPost                  // service handler: POST batches
	kindGet                   // service handler: GET sample
	kindOther                 // service handler: any other route
	numKinds
)

var kindNames = [numKinds]string{"send", "recv", "flush", "write", "read", "POST batches", "GET sample", "handler"}

// span is one recorded interval, in nanoseconds since the tracer's epoch.
// round is the index of the writer request in flight when it started.
type span struct {
	start, end int64
	round      int64
	track      int32
	kind       spanKind
}

// maxSpans bounds the span buffer (about 4 MB). Spans past it are dropped
// from the trace file; the per-track totals keep counting.
const maxSpans = 100_000

// tracer records spans from outside the program: around the benchmark's
// own requests and at the two injection points the program offers, each
// rank's transport.Conn and the service http.Handler. Recording is toggled
// by on, so one process can alternate untraced and traced slices.
type tracer struct {
	on    atomic.Bool
	round atomic.Int64
	epoch time.Time

	// tracks are the rank tracks 0..ranks-1, then writer, reader and
	// handler.
	tracks                  []string
	writer, reader, handler int

	spans []span
	next  atomic.Int64
	busy  [][numKinds]atomic.Int64 // per track: total ns inside spans
}

func newTracer(ranks int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
	for r := 0; r < ranks; r++ {
		t.tracks = append(t.tracks, fmt.Sprintf("rank %d", r))
	}
	t.writer, t.reader, t.handler = ranks, ranks+1, ranks+2
	t.tracks = append(t.tracks, "client writer", "client reader", "service handler")
	t.busy = make([][numKinds]atomic.Int64, len(t.tracks))
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(track int, kind spanKind, start, end int64) {
	t.busy[track][kind].Add(end - start)
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, round: t.round.Load(), track: int32(track), kind: kind}
	}
}

// total is the time all tracks in [lo, hi) spent in spans of kind.
func (t *tracer) total(lo, hi int, kind spanKind) int64 {
	var ns int64
	for tr := lo; tr < hi; tr++ {
		ns += t.busy[tr][kind].Load()
	}
	return ns
}

// recorded returns the buffered spans. Call it only once every recording
// goroutine has stopped.
func (t *tracer) recorded() []span {
	return t.spans[:min(t.next.Load(), int64(len(t.spans)))]
}

// durations returns the buffered spans of kind, in milliseconds.
func (t *tracer) durations(kind spanKind) []float64 {
	var out []float64
	for _, s := range t.recorded() {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start)/1e6)
		}
	}
	return out
}

// tracedConn wraps one rank's tcpnet transport. Embedding forwards every
// method of *tcpnet.Transport, which matters: reservoir.Node reads Stats
// and FlushNS through interface assertions, the collectives flush through
// transport.Flusher, and nodesvc turns on crash recovery (and accepts a
// store) only when the conn has the whole fault-tolerant surface.
type tracedConn struct {
	*tcpnet.Transport
	t     *tracer
	track int
}

func (c *tracedConn) Send(to, tag int, payload any, words int) {
	if !c.t.on.Load() {
		c.Transport.Send(to, tag, payload, words)
		return
	}
	t0 := c.t.now()
	c.Transport.Send(to, tag, payload, words)
	c.t.record(c.track, kindSend, t0, c.t.now())
}

func (c *tracedConn) Recv(from, tag int) any {
	if !c.t.on.Load() {
		return c.Transport.Recv(from, tag)
	}
	t0 := c.t.now()
	v := c.Transport.Recv(from, tag)
	c.t.record(c.track, kindRecv, t0, c.t.now())
	return v
}

func (c *tracedConn) Flush() {
	if !c.t.on.Load() {
		c.Transport.Flush()
		return
	}
	t0 := c.t.now()
	c.Transport.Flush()
	c.t.record(c.track, kindFlush, t0, c.t.now())
}

// wrapHandler wraps the service's HTTP handler with one span per request.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		kind := kindOther
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/batches"):
			kind = kindPost
		case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/sample"):
			kind = kindGet
		}
		t0 := t.now()
		h.ServeHTTP(w, r)
		t.record(t.handler, kind, t0, t.now())
	})
}

// writeChrome writes the buffered spans as Chrome trace-event JSON, one
// thread track per rank plus the client and handler tracks; Perfetto and
// chrome://tracing open it.
func (t *tracer) writeChrome(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ms","otherData":{"workload":%q,"dropped_spans":%d},"traceEvents":[`,
		workload, max(0, t.next.Load()-int64(len(t.spans))))
	fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":1,"args":{"name":%q}}`, workload)
	for i, name := range t.tracks {
		fmt.Fprintf(w, `,{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`, i, name)
	}
	for _, s := range t.recorded() {
		fmt.Fprintf(w, `,{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"round":%d}}`,
			kindNames[s.kind], s.track, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.round)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
