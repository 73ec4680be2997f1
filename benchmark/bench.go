package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports each of them, from its untraced window; BENCHMARK.json bounds
// how far each may worsen. A bound is three times the widest quartile
// spread measured for the metric, at most 0.25; setup_s has the largest.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_items_per_s", "items/s", "higher", 0.25},
	{"round_latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ns_per_item", "ns", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.1},
}

// perLayer are the layer metrics a traced run reports on every workload.
// A time is listed only when every workload runs its layer; counts of a
// layer a workload skips read 0.
var perLayer = []metricDef{
	{"service.decode_us_per_req", "us", "lower", 0},
	{"workload.batch_ns_per_item", "ns", "lower", 0},
	{"metrics.scrape_us", "us", "lower", 0},
	{"server.round_us_mean", "us", "lower", 0},
	{"server.control_us_per_round", "us", "lower", 0},
	{"core.inserted_per_round", "count", "lower", 0},
	{"core.selection_rounds_per_round", "count", "lower", 0},
	{"transport.msgs_per_round", "count", "lower", 0},
	{"transport.bytes_per_round", "bytes", "lower", 0},
	{"store.wal_bytes_per_round", "bytes", "lower", 0},
	{"store.checkpoints_per_kround", "count", "lower", 0},
	{"runtime.allocs_per_round", "count", "lower", 0},
	{"runtime.alloc_bytes_per_round", "bytes", "lower", 0},
	{"runtime.gc_cpu_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unattributed_pct", "%", "lower", 0},
}

// reportOnly metrics appear in the report and the -out file but are not
// in BENCHMARK.json: the round tail, which a stall of the host or its disk
// moves by 15-50% from run to run even when scaled; the reads, which only
// the two reader workloads make, where BENCHMARK.json requires every
// metric on every workload; and layer metrics of layers only some
// workloads run.
var reportOnly = []metricDef{
	{"round_latency_p99_ms", "ms", "lower", 0},
	{"read_latency_p50_ms", "ms", "lower", 0},
	{"read_latency_p99_ms", "ms", "lower", 0},
	{"loadgen.read_lag_ms_p99", "ms", "lower", 0},
	{"nodesvc.round_us_max_rank", "us", "lower", 0},
	{"nodesvc.capture_us_per_round", "us", "lower", 0},
	{"node.scan_us_per_round", "us", "lower", 0},
	{"node.coll_us_per_round", "us", "lower", 0},
	{"node.overlap_pct", "%", "higher", 0},
	{"transport.send_us_per_round", "us", "lower", 0},
	{"transport.recv_wait_us_per_round", "us", "lower", 0},
	{"transport.flush_us_per_round", "us", "lower", 0},
	{"transport.link_bytes_skew", "ratio", "lower", 0},
	{"store.wal_append_us_mean", "us", "lower", 0},
	{"store.wal_fsync_us_mean", "us", "lower", 0},
	{"service.handler_ms_p50", "ms", "lower", 0},
	{"service.read_us_p50", "us", "lower", 0},
	{"workload.build_source_us", "us", "lower", 0},
}

// metric is one measured value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// KernelMS is the run's median hostClock.kernelMS over the window.
	KernelMS float64 `json:"kernel_ms,omitempty"`
}

func thisHost() host {
	return host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// result is one run of one workload: every metric measured, whichever
// set the run prints.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Counts    map[string]int64  `json:"counts"`
	Host      host              `json:"host"`
	Error     string            `json:"error,omitempty"`
}

// runOptions set how one workload run measures.
type runOptions struct {
	seconds  time.Duration
	trace    bool
	traceDir string // traced runs write <workload>.trace.json here
	workDir  string // store directories live here
	setups   int    // set-ups timed; the last one is measured
}

// windowSlices is how many equal parts the window is cut into. The host's
// speed is timed at every slice edge, rates and the resident peak are
// medians over slices, and a traced run alternates untraced and traced
// slices, which keeps drift in the stream out of the tracing overhead.
const windowSlices = 10

// slice is one part of the window.
type slice struct {
	traced         bool
	start, end     time.Time
	fromRnd, toRnd int           // rounds posted in it
	cpu            time.Duration // process CPU time
	rssMB          float64       // peak resident set
	lat            []float64     // writer latencies, ms
	speed          float64       // host speed at its edges, refKernelMS over hostClock.kernelMS
}

// items is the number of items posted in the slice.
func (s slice) items(w workload, in *inputs) float64 {
	var n int64
	for r := s.fromRnd; r < s.toRnd; r++ {
		n += in.itemsIn(w, r)
	}
	return float64(n)
}

// runWorkload builds w's system, warms it up, measures one window, and
// checks the outputs. An error means the run proved nothing: the system
// failed, or the correctness gate did.
func runWorkload(w workload, seed uint64, o runOptions) (*result, error) {
	w = w.withSeed(seed)
	in, err := makeInputs(w)
	if err != nil {
		return nil, fmt.Errorf("making inputs: %w", err)
	}
	ranks := w.p
	if w.service {
		ranks = 0
	}
	var tr *tracer
	if o.trace {
		tr = newTracer(ranks)
	}
	clock, err := newHostClock()
	if err != nil {
		return nil, err
	}
	defer clock.close()
	wc, rc := newClient(), newClient()
	defer wc.hc.CloseIdleConnections()
	defer rc.hc.CloseIdleConnections()

	// Set-up, repeated: each instance is built from nothing and timed to
	// its first successful round, with the host's speed timed before
	// each. The last instance is the one measured.
	var sys system
	setups := make([]float64, 0, o.setups)
	setupKernel := make([]float64, 0, o.setups)
	for i := 0; i < o.setups; i++ {
		k, err := clock.kernelMS()
		if err != nil {
			return nil, fmt.Errorf("host clock: %w", err)
		}
		setupKernel = append(setupKernel, k)
		t0 := time.Now()
		s, err := startSystem(wc, w, in, filepath.Join(o.workDir, fmt.Sprintf("%s-%d", w.name, i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := wc.post(s.writeURL(), in.writeBody(0)); err != nil {
			return nil, errors.Join(fmt.Errorf("first round: %w", err), s.close(wc))
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < o.setups-1 {
			if err := s.close(wc); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			wc.hc.CloseIdleConnections()
			continue
		}
		sys = s
	}
	closed := false
	defer func() {
		if !closed {
			sys.close(wc)
		}
	}()

	round := 1
	for ; round <= w.warmup; round++ {
		if err := wc.post(sys.writeURL(), in.writeBody(round)); err != nil {
			return nil, fmt.Errorf("warm-up round %d: %w", round, err)
		}
	}
	g := gateInput{warmRounds: round}
	if g.warmSample, err = sys.sample(wc); err != nil {
		return nil, fmt.Errorf("warm-up sample: %w", err)
	}

	// The window.
	st0, err := sys.stats(wc)
	if err != nil {
		return nil, err
	}
	reg0, err := scrape(sys.registries())
	if err != nil {
		return nil, err
	}
	peer0 := linkBytes(sys)
	// Between slices the benchmark times the host's speed and restarts the
	// resident peak, so each slice's peak is its own: how much freed
	// memory the runtime still held from earlier depends on when it last
	// returned some.
	edge := func() (float64, error) {
		k, err := clock.kernelMS()
		if err != nil {
			return 0, fmt.Errorf("host clock: %w", err)
		}
		return k, resetPeakRSS()
	}
	k, err := edge()
	if err != nil {
		return nil, err
	}
	kernel := []float64{k}
	rt0 := readRuntime()
	start := time.Now()
	stopReader := make(chan struct{})
	reads := make(chan readResult, 1)
	if w.readRate > 0 {
		go func() { reads <- runReader(rc, sys.readURL(), w.readRate, start, stopReader, tr) }()
	} else {
		reads <- readResult{}
	}

	firstRound := round
	var sl []slice
	var writeErr, edgeErr error
	writes := int64(0)
	for j := 0; j < windowSlices && writeErr == nil && edgeErr == nil; j++ {
		s := slice{traced: tr != nil && j%2 == 1, fromRnd: round}
		if tr != nil {
			tr.on.Store(s.traced)
		}
		cpu0 := cpuTime()
		s.start = time.Now()
		for end := s.start.Add(o.seconds / windowSlices); time.Now().Before(end); round++ {
			if tr != nil {
				tr.round.Store(int64(round))
			}
			t0 := time.Now()
			err := wc.post(sys.writeURL(), in.writeBody(round))
			t1 := time.Now()
			writes++
			if err != nil {
				writeErr = err
				break
			}
			s.lat = append(s.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
			if s.traced {
				tr.record(tr.writer, kindWrite, int64(t0.Sub(tr.epoch)), int64(t1.Sub(tr.epoch)))
			}
		}
		s.end, s.toRnd, s.cpu, s.rssMB = time.Now(), round, cpuTime()-cpu0, peakRSSMB()
		if tr != nil {
			tr.on.Store(false)
		}
		k, edgeErr = edge()
		kernel = append(kernel, k)
		s.speed = refKernelMS / ((kernel[j] + kernel[j+1]) / 2)
		sl = append(sl, s)
	}
	close(stopReader)
	rt1 := readRuntime()
	rd := <-reads
	g.rounds = round
	g.failed = rd.failed
	if writeErr != nil {
		g.failed++
	}
	res := &result{
		Workload: w.name, Seed: seed, Seconds: o.seconds.Seconds(), Trace: o.trace,
		Attempted: writes + rd.attempted, Failed: g.failed,
		Metrics: map[string]metric{}, Host: thisHost(),
		Counts: map[string]int64{"rounds": int64(round - firstRound), "reads": rd.attempted - rd.failed},
	}
	if writeErr != nil {
		return res, fmt.Errorf("window write: %w", writeErr)
	}
	if edgeErr != nil {
		return res, edgeErr
	}
	st1, err := sys.stats(wc)
	if err != nil {
		return res, err
	}
	reg1, err := scrape(sys.registries())
	if err != nil {
		return res, err
	}
	peer1 := linkBytes(sys)
	if g.finalSample, err = sys.sample(wc); err != nil {
		return res, fmt.Errorf("final sample: %w", err)
	}
	var probes probeResults
	if o.trace {
		probes = runProbes(w, in, sys)
	}
	closed = true
	if err := sys.close(wc); err != nil {
		return res, fmt.Errorf("teardown: %w", err)
	}
	if tr != nil {
		if err := tr.writeChrome(filepath.Join(o.traceDir, w.name+".trace.json"), w.name); err != nil {
			return res, fmt.Errorf("writing trace: %w", err)
		}
	}

	g.itemsServer = st1.items
	for r := 0; r < round; r++ {
		g.itemsPosted += in.itemsIn(w, r)
	}
	if err := checkGate(w, in, g); err != nil {
		return res, fmt.Errorf("correctness gate: %w", err)
	}
	res.Correct = true

	rounds := float64(st1.rounds - st0.rounds)
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(name)} }

	// End to end, from the untraced slices, every time scaled to the
	// reference host speed.
	set("setup_s", median(setups)*refKernelMS/median(setupKernel))
	var thrOff, thrOn, p50, cpuPerItem, rss, roundLat, lat []float64
	var cpu time.Duration
	for _, s := range sl {
		items := s.items(w, in)
		thr := items / s.end.Sub(s.start).Seconds() / s.speed
		lat = append(lat, s.lat...)
		cpu += s.cpu
		if s.traced {
			thrOn = append(thrOn, thr)
			continue
		}
		thrOff = append(thrOff, thr)
		p50 = append(p50, percentile(s.lat, 50)*s.speed)
		cpuPerItem = append(cpuPerItem, float64(s.cpu.Nanoseconds())/items*s.speed)
		rss = append(rss, s.rssMB)
		for _, l := range s.lat {
			roundLat = append(roundLat, l*s.speed)
		}
	}
	set("throughput_items_per_s", median(thrOff))
	set("round_latency_p50_ms", median(p50))
	set("round_latency_p99_ms", percentile(roundLat, 99))
	set("cpu_ns_per_item", median(cpuPerItem))
	set("peak_rss_mb", median(rss))
	res.Host.KernelMS = median(kernel)
	if w.readRate > 0 {
		// A reader later than one interval at p99 no longer kept its
		// schedule, which voids its latencies, though not the run.
		lag := percentile(rd.lag, 99)
		set("loadgen.read_lag_ms_p99", lag)
		if lag <= 1e3/float64(w.readRate) {
			speed := refKernelMS / res.Host.KernelMS
			set("read_latency_p50_ms", percentile(rd.lat, 50)*speed)
			set("read_latency_p99_ms", percentile(rd.lat, 99)*speed)
		}
	}

	// Layers, from counters the program exports, unscaled.
	clientUS := mean(lat) * 1e3
	roundUS := 0.0
	if w.service {
		roundUS = histMeanUS(reg0[0], reg1[0], "reservoir_round_duration_seconds")
	} else {
		roundUS = histMeanUS(reg0[0], reg1[0], "reservoir_node_round_duration_seconds")
		worst := 0.0
		for r := range reg0 {
			worst = max(worst, histMeanUS(reg0[r], reg1[r], "reservoir_node_round_duration_seconds"))
		}
		set("nodesvc.round_us_max_rank", worst)
	}
	set("server.round_us_mean", roundUS)
	set("server.control_us_per_round", clientUS-roundUS)
	set("core.inserted_per_round", float64(st1.inserted-st0.inserted)/rounds)
	set("core.selection_rounds_per_round", float64(st1.selRounds-st0.selRounds)/rounds)
	set("transport.msgs_per_round", float64(st1.msgs-st0.msgs)/rounds)
	set("transport.bytes_per_round", float64(st1.bytes-st0.bytes)/rounds)
	var walBytes, checkpoints, appendS, appends, fsyncS, fsyncs float64
	for r := range reg0 {
		walBytes += delta(reg0[r], reg1[r], "reservoir_store_wal_bytes_total")
		checkpoints += delta(reg0[r], reg1[r], "reservoir_store_checkpoints_total")
		appendS += delta(reg0[r], reg1[r], "reservoir_store_wal_append_seconds_sum")
		appends += delta(reg0[r], reg1[r], "reservoir_store_wal_append_seconds_count")
		fsyncS += delta(reg0[r], reg1[r], "reservoir_store_wal_fsync_seconds_sum")
		fsyncs += delta(reg0[r], reg1[r], "reservoir_store_wal_fsync_seconds_count")
	}
	set("store.wal_bytes_per_round", walBytes/rounds)
	set("store.checkpoints_per_kround", 1000*checkpoints/rounds)
	if appends > 0 {
		set("store.wal_append_us_mean", 1e6*appendS/appends)
	}
	if fsyncs > 0 {
		set("store.wal_fsync_us_mean", 1e6*fsyncS/fsyncs)
	}
	set("runtime.allocs_per_round", (rt1.allocs-rt0.allocs)/rounds)
	set("runtime.alloc_bytes_per_round", (rt1.allocBytes-rt0.allocBytes)/rounds)
	set("runtime.gc_cpu_pct", 100*(rt1.gcCPU-rt0.gcCPU)/cpu.Seconds())
	if !w.service {
		perRank := float64(w.p) * rounds
		if phase := st1.roundNS - st0.roundNS; phase > 0 {
			nodeRoundUS := float64(phase) / perRank / 1e3
			set("node.scan_us_per_round", float64(st1.scanNS-st0.scanNS)/perRank/1e3)
			set("node.coll_us_per_round", float64(st1.collNS-st0.collNS)/perRank/1e3)
			set("node.overlap_pct", 100*float64(st1.overlapNS-st0.overlapNS)/float64(phase))
			set("nodesvc.capture_us_per_round", roundUS-nodeRoundUS)
		}
		set("transport.flush_us_per_round", float64(st1.flushNS-st0.flushNS)/perRank/1e3)
		set("transport.link_bytes_skew", skew(peer0, peer1))
	}

	if tr == nil {
		return res, nil
	}
	// Layers, from the probes and the traced slices.
	set("service.decode_us_per_req", probes.decodeUS)
	set("workload.batch_ns_per_item", probes.batchNS)
	set("metrics.scrape_us", probes.scrapeUS)
	covered := probes.decodeUS + roundUS
	if !w.service {
		set("workload.build_source_us", probes.buildSourceUS)
		// The root validates the spec and then builds its own source.
		covered += 2 * probes.buildSourceUS
	}
	set("trace.unattributed_pct", 100*(clientUS-covered)/clientUS)
	set("trace.overhead_pct", 100*(median(thrOff)-median(thrOn))/median(thrOff))
	tracedRounds := 0
	for _, s := range sl {
		if s.traced {
			tracedRounds += s.toRnd - s.fromRnd
		}
	}
	if w.service {
		set("service.handler_ms_p50", percentile(tr.durations(kindPost), 50))
		set("service.read_us_p50", 1e3*percentile(tr.durations(kindGet), 50))
	} else if tracedRounds > 0 {
		perRank := float64(w.p * tracedRounds)
		set("transport.send_us_per_round", float64(tr.total(0, w.p, kindSend))/perRank/1e3)
		set("transport.recv_wait_us_per_round", float64(tr.total(0, w.p, kindRecv))/perRank/1e3)
	}
	return res, nil
}

// histMeanUS is the mean of a scraped histogram over the window, in
// microseconds (0 when nothing was observed).
func histMeanUS(before, after map[string]float64, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0
	}
	return 1e6 * delta(before, after, name+"_sum") / n
}

// linkBytes snapshots the framed bytes each rank sent each peer, from
// tcpnet's per-peer counters (nil without tcpnet).
func linkBytes(sys system) [][]int64 {
	var out [][]int64
	for _, t := range sys.transports() {
		ps := t.PeerStats()
		row := make([]int64, len(ps))
		for i, p := range ps {
			row[i] = p.Bytes
		}
		out = append(out, row)
	}
	return out
}

// skew is the busiest directed link's bytes over the mean link's, over
// the window.
func skew(before, after [][]int64) float64 {
	var links []float64
	for r := range after {
		for q := range after[r] {
			if q != r {
				links = append(links, float64(after[r][q]-before[r][q]))
			}
		}
	}
	if m := mean(links); m > 0 {
		return slices.Max(links) / m
	}
	return 0
}

// probeResults are the layer probes, run after the window on the
// workload's own inputs.
type probeResults struct {
	decodeUS, batchNS, scrapeUS, buildSourceUS float64
}

func runProbes(w workload, in *inputs, sys system) probeResults {
	p := probeResults{
		decodeUS: probeDecode(w, in),
		batchNS:  probeBatch(w, in),
		scrapeUS: probeScrape(sys.registries()),
	}
	if !w.service {
		p.buildSourceUS = probeBuildSource(w)
	}
	return p
}

// readResult is the open-loop reader's record.
type readResult struct {
	lat, lag          []float64 // ms from the due time to completion, and to the send
	attempted, failed int64
}

// runReader issues GETs on a fixed schedule from start until stop closes,
// regardless of how fast the system answers, and times each from when it
// was due. A late reader delays its requests; lag records by how much.
func runReader(c *client, url string, rate int, start time.Time, stop <-chan struct{}, tr *tracer) readResult {
	interval := time.Second / time.Duration(rate)
	var r readResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			return r
		default:
		}
		sent := time.Now()
		err := c.get(url)
		done := time.Now()
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		if tr != nil && tr.on.Load() {
			tr.record(tr.reader, kindRead, int64(sent.Sub(tr.epoch)), int64(done.Sub(tr.epoch)))
		}
		r.lat = append(r.lat, float64(done.Sub(due).Nanoseconds())/1e6)
		r.lag = append(r.lag, float64(sent.Sub(due).Nanoseconds())/1e6)
	}
}

// unitOf returns a metric's unit from the catalogue.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer, reportOnly} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}
