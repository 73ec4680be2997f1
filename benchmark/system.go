package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"reservoir"
	"reservoir/internal/metrics"
	"reservoir/internal/nodesvc"
	"reservoir/internal/service"
	"reservoir/internal/store"
	"reservoir/internal/transport/tcpnet"
	wl "reservoir/internal/workload"
)

// system is one in-process instance of the program under test, reached
// only over loopback HTTP plus the public handles its constructors return.
type system interface {
	writeURL() string
	readURL() string
	// stats returns the server-side counters; on node workloads it runs
	// the collective refresh, so every posted round is counted.
	stats(c *client) (serverStats, error)
	sample(c *client) ([]service.WireItem, error)
	registries() []*metrics.Registry
	// transports is nil on the service workload, which has no tcpnet.
	transports() []*tcpnet.Transport
	close(c *client) error
}

// serverStats are the counters both kinds of server report, normalized.
// The phase fields are summed over ranks and are zero unless the node
// runs the sharded scan.
type serverStats struct {
	rounds, items, inserted, selRounds, msgs, bytes int64
	scanNS, collNS, overlapNS, roundNS, flushNS     int64
}

// inputs are a workload's generated inputs, made once per run from the
// seed. The program only ever sees the request bodies.
type inputs struct {
	body []byte           // node: the rounds request, identical every round
	src  reservoir.Source // node: the stream the program derives from body

	bodies  [][]byte                 // service: explicit ingest bodies, cycled
	batches [][]reservoir.SliceBatch // service: the same bodies as batches
	runCfg  []byte                   // service: the POST /v1/runs body
}

func makeInputs(w workload) (*inputs, error) {
	in := &inputs{}
	if !w.service {
		src, err := w.spec.BuildSource(service.RunConfig{Seed: w.cfg.Seed, Uniform: !w.cfg.Weighted})
		if err != nil {
			return nil, err
		}
		in.src = src
		in.body, err = json.Marshal(map[string]any{"synthetic": w.spec, "defer_stats": w.deferStats})
		return in, err
	}
	// Pareto(1.5) weights, the heavy-tailed user data of the heavy-hitter
	// example. Body b carries PE pe's items with the IDs ParetoSource
	// gives round b, so a sampled ID names the body, PE and index it
	// came from.
	gen := reservoir.ParetoSource{Seed: w.spec.Seed, BatchLen: w.itemsPerPE, Shape: 1.5}
	for b := 0; b < w.bodies; b++ {
		batches := make([]reservoir.SliceBatch, w.p)
		wire := make([][]service.WireItem, w.p)
		for pe := range batches {
			batches[pe] = wl.Materialize(gen.NextBatch(pe, b))
			wire[pe] = make([]service.WireItem, len(batches[pe]))
			for i, it := range batches[pe] {
				wire[pe][i] = service.WireItem{W: it.W, ID: it.ID}
			}
		}
		body, err := json.Marshal(service.IngestRequest{Batches: wire})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.batches = append(in.batches, batches)
	}
	var err error
	in.runCfg, err = json.Marshal(service.RunConfig{Kind: service.KindCluster, P: w.p, K: w.cfg.K, Seed: w.cfg.Seed})
	return in, err
}

// writeBody is the writer's request for the given round.
func (in *inputs) writeBody(round int) []byte {
	if in.bodies != nil {
		return in.bodies[round%len(in.bodies)]
	}
	return in.body
}

// itemsIn is the number of items the given round carries.
func (in *inputs) itemsIn(w workload, round int) int64 {
	var n int64
	for pe := 0; pe < w.p; pe++ {
		if in.bodies != nil {
			n += int64(len(in.batches[round%len(in.batches)][pe]))
		} else {
			n += int64(in.src.NextBatch(pe, round).Len())
		}
	}
	return n
}

// startSystem builds one instance of w's system under dir. tr, when not
// nil, wraps each rank's Conn (node workloads) or the service Handler.
func startSystem(c *client, w workload, in *inputs, dir string, tr *tracer) (system, error) {
	if w.service {
		return startService(c, w, in, dir, tr)
	}
	return startNodes(w, dir, tr)
}

// nodeSystem is p nodesvc servers over a loopback tcpnet mesh, each built
// the way reservoir-serve node mode builds one process.
type nodeSystem struct {
	trs  []*tcpnet.Transport
	sts  []*store.Store
	regs []*metrics.Registry
	dir  string
	base string
	read string

	wg   sync.WaitGroup
	errs []error
}

func startNodes(w workload, dir string, tr *tracer) (_ *nodeSystem, err error) {
	rejoin := time.Duration(0)
	if w.durable {
		rejoin = rejoinWindow * time.Second
	}
	trs, err := tcpnet.LoopbackFT(w.p, rejoin)
	if err != nil {
		return nil, err
	}
	s := &nodeSystem{trs: trs, dir: dir, regs: make([]*metrics.Registry, w.p), errs: make([]error, w.p)}
	defer func() {
		if err != nil {
			s.release()
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.read = s.base + w.readPath
	srvs := make([]*nodesvc.Server, w.p)
	for rank := range srvs {
		s.regs[rank] = metrics.NewRegistry()
		opts := nodesvc.Options{Conn: trs[rank], Config: w.cfg, Metrics: s.regs[rank]}
		if tr != nil {
			opts.Conn = &tracedConn{Transport: trs[rank], t: tr, track: rank}
		}
		if rank == 0 {
			opts.Listener = ln
		}
		if w.durable {
			st, err := store.Open(filepath.Join(dir, fmt.Sprintf("rank%d", rank)),
				store.WithFsync(store.FsyncInterval),
				store.WithSnapshotRetention(snapshotRetention),
				store.WithMetrics(s.regs[rank]))
			if err != nil {
				ln.Close()
				return nil, err
			}
			s.sts = append(s.sts, st)
			opts.Store = st
		}
		if srvs[rank], err = nodesvc.New(opts); err != nil {
			ln.Close()
			return nil, err
		}
	}
	for rank, srv := range srvs {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.errs[rank] = srv.Run()
		}()
	}
	return s, nil
}

func (s *nodeSystem) writeURL() string                { return s.base + "/v1/cluster/rounds" }
func (s *nodeSystem) readURL() string                 { return s.read }
func (s *nodeSystem) registries() []*metrics.Registry { return s.regs }
func (s *nodeSystem) transports() []*tcpnet.Transport { return s.trs }

func (s *nodeSystem) stats(c *client) (serverStats, error) {
	var st nodesvc.Stats
	if err := c.getJSON(s.base+"/v1/cluster/stats?refresh=1", &st); err != nil {
		return serverStats{}, err
	}
	return serverStats{
		rounds: int64(st.Rounds), items: st.ItemsProcessed, inserted: st.Inserted,
		selRounds: st.SelectionRounds, msgs: st.Network.Messages, bytes: st.Network.Bytes,
		scanNS: st.ScanNS, collNS: st.CollNS, overlapNS: st.OverlapNS, roundNS: st.RoundNS, flushNS: st.FlushNS,
	}, nil
}

func (s *nodeSystem) sample(c *client) ([]service.WireItem, error) {
	var resp nodesvc.SampleResponse
	if err := c.getJSON(s.base+"/v1/cluster/sample", &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// close shuts the cluster down through its control API, waits for every
// rank's Run to return, and releases transports, stores and files.
func (s *nodeSystem) close(c *client) error {
	err := c.post(s.base+"/v1/cluster/shutdown", nil)
	if err != nil {
		// Unblock the followers; rank 0 may stay parked on its command
		// queue, which the process exit reclaims.
		s.release()
		return fmt.Errorf("cluster shutdown: %w", err)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		s.release()
		return errors.New("cluster did not shut down within 30s")
	}
	s.release()
	return errors.Join(s.errs...)
}

func (s *nodeSystem) release() {
	for _, t := range s.trs {
		t.Close()
	}
	for _, st := range s.sts {
		st.Close()
	}
	os.RemoveAll(s.dir)
}

// serviceSystem is internal/service with a store, served on loopback as
// reservoir-serve -data serves it, hosting one cluster run.
type serviceSystem struct {
	st    *store.Store
	svc   *service.Server
	reg   *metrics.Registry
	hs    *http.Server
	serve chan error
	dir   string
	run   string
}

func startService(c *client, w workload, in *inputs, dir string, tr *tracer) (_ *serviceSystem, err error) {
	reg := metrics.NewRegistry()
	st, err := store.Open(dir, store.WithFsync(store.FsyncInterval), store.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	svc := service.New(service.WithStore(st), service.WithMetrics(reg))
	s := &serviceSystem{st: st, svc: svc, reg: reg, dir: dir, serve: make(chan error, 1)}
	if err := svc.Recover(); err != nil {
		s.release()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.release()
		return nil, err
	}
	var h http.Handler = svc.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.serve <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	var created service.CreateResponse
	if err := c.postJSON(base+"/v1/runs", in.runCfg, &created); err != nil {
		s.close(c)
		return nil, err
	}
	s.run = base + "/v1/runs/" + created.ID
	return s, nil
}

func (s *serviceSystem) writeURL() string                { return s.run + "/batches?wait=true" }
func (s *serviceSystem) readURL() string                 { return s.run + "/sample" }
func (s *serviceSystem) registries() []*metrics.Registry { return []*metrics.Registry{s.reg} }
func (s *serviceSystem) transports() []*tcpnet.Transport { return nil }

func (s *serviceSystem) stats(c *client) (serverStats, error) {
	var st service.Stats
	if err := c.getJSON(s.run+"/stats", &st); err != nil {
		return serverStats{}, err
	}
	out := serverStats{
		rounds: int64(st.Rounds), items: st.ItemsProcessed, inserted: st.Inserted,
		selRounds: st.SelectionDepth,
	}
	if st.Network != nil {
		out.msgs, out.bytes = st.Network.Messages, st.Network.Bytes
	}
	return out, nil
}

func (s *serviceSystem) sample(c *client) ([]service.WireItem, error) {
	var resp service.SampleResponse
	if err := c.getJSON(s.run+"/sample", &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// close drains the service in reservoir-serve's shutdown order.
func (s *serviceSystem) close(*client) error {
	s.svc.Close()
	stErr := s.st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hsErr := s.hs.Shutdown(ctx)
	if err := <-s.serve; !errors.Is(err, http.ErrServerClosed) {
		hsErr = errors.Join(hsErr, err)
	}
	os.RemoveAll(s.dir)
	return errors.Join(stErr, hsErr)
}

// release frees what startService built before its listener existed.
func (s *serviceSystem) release() {
	s.svc.Close()
	s.st.Close()
	os.RemoveAll(s.dir)
}

// client is one keep-alive HTTP connection to the system: the writer and
// the reader each own one, so the load comes from at most two.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// do sends one request and fails on transport errors and non-2xx
// statuses. With out nil the body is discarded.
func (c *client) do(method, url string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) post(url string, body []byte) error { return c.do(http.MethodPost, url, body, nil) }
func (c *client) get(url string) error               { return c.do(http.MethodGet, url, nil, nil) }
func (c *client) getJSON(url string, out any) error  { return c.do(http.MethodGet, url, nil, out) }
func (c *client) postJSON(url string, body []byte, out any) error {
	return c.do(http.MethodPost, url, body, out)
}
