package core

import "sync"

// weightBufs pools the flat weight slices the skip scans materialize per
// batch (see workload.FillWeights): one slice per in-flight batch, reused
// across rounds so the steady-state scan allocates nothing.
var weightBufs = sync.Pool{New: func() any { b := make([]float64, 0, 1024); return &b }}

// grabWeights returns a pooled slice of length n for a batch's weights;
// the caller fills it. Release it with releaseWeights when the scan is
// done.
func grabWeights(n int) *[]float64 {
	p := weightBufs.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func releaseWeights(p *[]float64) {
	weightBufs.Put(p)
}
