#include "textflag.h"

// Lane j of the first block starts at counter word v + j*phi.
DATA lanes<>+0(SB)/8, $0x0000000000000000
DATA lanes<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA lanes<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA lanes<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA lanes<>+32(SB)/8, $0x78dde6e5fd29f054
DATA lanes<>+40(SB)/8, $0x1715609f7c746c69
DATA lanes<>+48(SB)/8, $0xb54cda58fbbee87e
DATA lanes<>+56(SB)/8, $0x538454127b096493
GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func u01AffineFillAVX512(v uint64, dst []float64, lo, scale float64)
TEXT ·u01AffineFillAVX512(SB), NOSPLIT, $0-48
	MOVQ v+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	VPBROADCASTQ AX, Z0
	VPADDQ       lanes<>(SB), Z0, Z0     // Z0: counter words, v + j*phi
	MOVQ         $0x9e3779b97f4a7c15, AX // phi
	SHLQ         $3, AX
	VPBROADCASTQ AX, Z1                  // Z1: 8*phi, one block's step
	MOVQ         $0xbf58476d1ce4e5b9, AX
	VPBROADCASTQ AX, Z2                  // Z2: Mix64's c1
	MOVQ         $0x94d049bb133111eb, AX
	VPBROADCASTQ AX, Z3                  // Z3: Mix64's c2
	MOVQ         $1, AX
	VPBROADCASTQ AX, Z4                  // Z4: 1
	MOVQ         $0x3ca0000000000000, AX
	VPBROADCASTQ AX, Z5                  // Z5: 2^-53
	VBROADCASTSD lo+32(FP), Z6           // Z6: lo
	VBROADCASTSD scale+40(FP), Z7        // Z7: scale

loop:
	// Mix64: x ^= x>>30; x *= c1; x ^= x>>27; x *= c2; x ^= x>>31.
	VPSRLQ  $30, Z0, Z8
	VPXORQ  Z0, Z8, Z8
	VPMULLQ Z2, Z8, Z8
	VPSRLQ  $27, Z8, Z9
	VPXORQ  Z8, Z9, Z8
	VPMULLQ Z3, Z8, Z8
	VPSRLQ  $31, Z8, Z9
	VPXORQ  Z8, Z9, Z8

	// toU01: float64(x>>11 + 1) * 2^-53, exact; then the product with
	// scale and the sum with lo, each rounded on its own (no FMA).
	VPSRLQ    $11, Z8, Z8
	VPADDQ    Z4, Z8, Z8
	VCVTQQ2PD Z8, Z8
	VMULPD    Z5, Z8, Z8
	VMULPD    Z7, Z8, Z8
	VADDPD    Z6, Z8, Z8
	VMOVUPD   Z8, (DI)

	VPADDQ Z1, Z0, Z0
	ADDQ   $64, DI
	SUBQ   $8, CX
	JNZ    loop

	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
