package main

import (
	"bufio"
	"bytes"
	"math"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	reg "reservoir/internal/metrics"
	"reservoir/internal/service"
	wl "reservoir/internal/workload"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the process's resident-set high-water mark from
// its current resident set (Linux clear_refs code 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is the Go runtime's allocation and GC counters.
type runtimeSample struct {
	allocs, allocBytes float64
	gcCPU              float64 // seconds
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: v(0), allocBytes: v(1), gcCPU: v(2)}
}

// scrape reads each registry through its text exposition, as a
// Prometheus scraper would, summing samples of the same name (within one
// registry they differ only by the rank or run label). Histogram buckets
// are skipped.
func scrape(regs []*reg.Registry) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(regs))
	for i, r := range regs {
		fams, err := reg.Parse(r.Expose())
		if err != nil {
			return nil, err
		}
		m := map[string]float64{}
		for _, f := range fams {
			for _, s := range f.Samples {
				if !strings.HasSuffix(s.Name, "_bucket") {
					m[s.Name] += s.Value
				}
			}
		}
		out[i] = m
	}
	return out, nil
}

// delta is after − before of one scraped sample.
func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// quartiles returns Q1, median and Q3 of xs the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) and statistics.median
// compute them, so the benchmark's spreads match an outside check.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := slices.Clone(xs)
	slices.Sort(d)
	i := int(math.Ceil(p/100*float64(len(d)))) - 1
	return d[max(0, min(i, len(d)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// probeBudget is how long each layer probe repeats its call.
const probeBudget = 200 * time.Millisecond

// probe calls fn repeatedly for probeBudget (at least three times) and
// returns the total time and the number of calls.
func probe(fn func(i int)) (time.Duration, int) {
	start := time.Now()
	n := 0
	for ; n < 3 || time.Since(start) < probeBudget; n++ {
		fn(n)
	}
	return time.Since(start), n
}

// perCall is probe's mean time per call, in microseconds.
func perCall(total time.Duration, n int) float64 {
	return float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// probeDecode times service.DecodeBody, the strict JSON decode both
// servers run on every write request, over the workload's own bodies, in
// microseconds per request.
func probeDecode(w workload, in *inputs) float64 {
	return perCall(probe(func(i int) {
		req := httptest.NewRequest("POST", "/", bytes.NewReader(in.writeBody(i)))
		rec := httptest.NewRecorder()
		var err error
		if w.service {
			var v service.IngestRequest
			err = service.DecodeBody(rec, req, 256<<20, &v)
		} else {
			// The node control API's rounds request shape.
			var v struct {
				Synthetic  *service.SyntheticSpec `json:"synthetic"`
				DeferStats bool                   `json:"defer_stats,omitempty"`
			}
			err = service.DecodeBody(rec, req, 256<<20, &v)
		}
		if err != nil {
			panic(err) // the same bodies decoded in the window; a failure is a benchmark bug
		}
	}))
}

// probeBuildSource times SyntheticSpec.BuildSource on the workload's
// spec, in microseconds per call; node mode calls it once per rank per
// command plus once to validate the request.
func probeBuildSource(w workload) float64 {
	rc := service.RunConfig{Seed: w.cfg.Seed, Uniform: !w.cfg.Weighted}
	return perCall(probe(func(int) {
		if _, err := w.spec.BuildSource(rc); err != nil {
			panic(err) // validated when the inputs were made
		}
	}))
}

// probeScrape times one Registry.Expose of every server registry, in
// microseconds.
func probeScrape(regs []*reg.Registry) float64 {
	return perCall(probe(func(int) {
		for _, r := range regs {
			_ = r.Expose()
		}
	}))
}

// probeBatch returns the nanoseconds per item to produce a batch and
// materialize its weights with workload.FillWeights, the scan's first
// step: NextBatch on the workload's stream, or the decoded explicit
// batches on the service workload.
func probeBatch(w workload, in *inputs) float64 {
	var buf []float64
	var items int64
	total, _ := probe(func(i int) {
		pe, round := i%w.p, i/w.p
		var b wl.Batch
		if in.batches != nil {
			b = in.batches[round%len(in.batches)][pe]
		} else {
			b = in.src.NextBatch(pe, round)
		}
		if cap(buf) < b.Len() {
			buf = make([]float64, b.Len())
		}
		wl.FillWeights(b, buf[:b.Len()])
		items += int64(b.Len())
	})
	return float64(total.Nanoseconds()) / float64(items)
}
