//go:build !amd64

package rng

// vecFill selects the vector fill kernel, which only amd64 has.
var vecFill = false

// u01AffineFillVec fills nothing: the Go loop of U01AffineFill is the
// only path off amd64.
func u01AffineFillVec(v uint64, dst []float64, lo, scale float64) int { return 0 }
