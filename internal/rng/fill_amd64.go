package rng

// vecFill selects the AVX-512 kernel for U01AffineFill. It is decided
// once, from what the CPU and OS report; the tests turn it off to run
// the Go loop on the same inputs.
var vecFill = hasAVX512()

// vecFillChunk caps the items one kernel call fills, so that a
// multi-million-item fill yields to the scheduler between calls: an
// assembly function cannot be preempted.
const vecFillChunk = 1 << 14

// u01AffineFillVec fills the leading multiple of eight items of dst from
// the counter word v (the word of dst[0]) and returns how many it
// filled: none when the kernel is off.
func u01AffineFillVec(v uint64, dst []float64, lo, scale float64) int {
	if !vecFill {
		return 0
	}
	n := len(dst) &^ 7
	for i := 0; i < n; i += vecFillChunk {
		end := min(i+vecFillChunk, n)
		u01AffineFillAVX512(v+uint64(i)*phi, dst[i:end], lo, scale)
	}
	return n
}

// u01AffineFillAVX512 sets dst[j] = lo + toU01(Mix64(v + j*phi))*scale
// eight lanes at a time, rounding the product and the sum separately as
// the Go expression does. len(dst) must be a positive multiple of 8.
//
//go:noescape
func u01AffineFillAVX512(v uint64, dst []float64, lo, scale float64)

// hasAVX512 reports whether the CPU has AVX512F, AVX512DQ (VPMULLQ,
// VCVTQQ2PD) and AVX512VL, and the OS saves the opmask and ZMM state.
func hasAVX512() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&osxsave == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	const zmmState = 0xE6
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false
	}
	const avx512f, avx512dq, avx512vl = 1 << 16, 1 << 17, 1 << 31
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(avx512f|avx512dq|avx512vl) == avx512f|avx512dq|avx512vl
}

// cpuid executes CPUID with EAX=eaxArg and ECX=ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0).
func xgetbv() (eax, edx uint32)
