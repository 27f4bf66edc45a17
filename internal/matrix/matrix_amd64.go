package matrix

// axpy4AVX is axpy4Vec in 256-bit AVX (matrix_amd64.s): four columns to
// an instruction, VMULPD then VADDPD — never a fused multiply-add, whose
// single rounding would change the low bit of most sums.
//
//go:noescape
func axpy4AVX(d, a, b *float64, w, inner, stride, rows int, first bool)

// avxUsable reports whether this CPU has AVX and the operating system
// saves the YMM registers across context switches: CPUID.1:ECX has
// OSXSAVE (bit 27) and AVX (bit 28) set, and XCR0, read with XGETBV, has
// the SSE and AVX state bits (1 and 2) set.
func avxUsable() bool

func init() {
	if avxUsable() {
		axpy4Vec = axpy4AVX
	}
}
