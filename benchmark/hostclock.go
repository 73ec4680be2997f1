package main

import (
	"errors"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"
)

// refKernelMS is hostClock.kernelMS on the reference host, a 2-vCPU
// 2.1 GHz Xeon VM at rest: about 5 ms of arithmetic and 2 ms of round
// trips. End-to-end times are scaled to that host's speed.
const refKernelMS = 7.0

const (
	kernelIters      = 2_000_000 // per P and arithmetic pass
	kernelRoundTrips = 200       // per round-trip pass
	kernelPasses     = 3
)

// hostClock times how fast the host runs a fixed kernel. A shared VM's
// speed drifts by up to 1.5x over minutes, and every time the program
// takes drifts with it; scaling those times by the kernel's cancels much
// of that. The kernel has the two kinds of work the workloads wait on:
// arithmetic on every P at once (xorshift sums scattered over a 256 KiB
// table per P), and small round trips over a loopback TCP connection,
// which wake a parked thread each way.
//
// The kernel runs between the writer's requests, when the system under
// test should be idle. CPU the program spends while idle slows the kernel
// as well and so partly cancels in the scaled rates; cpu_ns_per_item,
// which counts that CPU, still shows it.
type hostClock struct {
	tables [][]uint64
	ln     net.Listener
	conn   net.Conn
	echo   sync.WaitGroup
}

func newHostClock() (*hostClock, error) {
	h := &hostClock{}
	for range runtime.GOMAXPROCS(0) {
		h.tables = append(h.tables, make([]uint64, 1<<15))
	}
	var err error
	if h.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	h.echo.Add(1)
	go func() {
		defer h.echo.Done()
		c, err := h.ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	if h.conn, err = net.Dial("tcp", h.ln.Addr().String()); err != nil {
		h.ln.Close()
		h.echo.Wait()
		return nil, err
	}
	return h, nil
}

// kernelMS collects garbage, so the program's collector does not run
// inside the kernel, then returns the fastest arithmetic pass plus the
// fastest round-trip pass, in milliseconds: the fastest of each, so a
// passing stall does not count.
func (h *hostClock) kernelMS() (float64, error) {
	runtime.GC()
	arith, trips := math.Inf(1), math.Inf(1)
	buf := make([]byte, 64)
	for range kernelPasses {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g, table := range h.tables {
			wg.Add(1)
			go func(x uint64) {
				defer wg.Done()
				for range kernelIters {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					table[x&(1<<15-1)] += x
				}
			}(uint64(g+1) * 0x9e3779b97f4a7c15)
		}
		wg.Wait()
		arith = min(arith, float64(time.Since(t0).Nanoseconds())/1e6)

		t0 = time.Now()
		for range kernelRoundTrips {
			if _, err := h.conn.Write(buf); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(h.conn, buf); err != nil {
				return 0, err
			}
		}
		trips = min(trips, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return arith + trips, nil
}

// close closes the connection and waits for the echo to end.
func (h *hostClock) close() error {
	err := errors.Join(h.conn.Close(), h.ln.Close())
	h.echo.Wait()
	return err
}
