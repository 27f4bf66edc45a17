package matrix

import "math"

// axpy4AVX is axpy4Vec in 256-bit AVX (matrix_amd64.s): four columns to
// an instruction, VMULPD then VADDPD — never a fused multiply-add, whose
// single rounding would change the low bit of most sums.
//
//go:noescape
func axpy4AVX(d, a, b *float64, w, inner, stride, rows int, first bool)

// axpy4AVX512 is axpy4AVX at 512 bits (matrix_amd64.s): sixteen columns
// to a pass, then eight, then axpy4AVX's own four- and one-column steps,
// with the same operations in the same order, so that which of the two
// ran cannot be told from the result.
//
//go:noescape
func axpy4AVX512(d, a, b *float64, w, inner, stride, rows int, first bool)

// axpyAVX is axpyVec in 256-bit AVX (matrix_amd64.s): eight, four, then
// one column(s) to a step, VMULPD then VADDPD.
//
//go:noescape
func axpyAVX(d, a, b *float64, w int)

// sinAVX and cosAVX are sinVec and cosVec in 256-bit AVX
// (matrix_amd64.s), four arguments to an instruction.
//
//go:noescape
func sinAVX(dst, src *float64, n int) int

//go:noescape
func cosAVX(dst, src *float64, n int) int

// avxUsable reports whether this CPU has AVX and the operating system
// saves the YMM registers across context switches: CPUID.1:ECX has
// OSXSAVE (bit 27) and AVX (bit 28) set, and XCR0, read with XGETBV, has
// the SSE and AVX state bits (1 and 2) set.
func avxUsable() bool

// avx512Usable reports whether this CPU has AVX512F and the operating
// system saves the whole ZMM state: the highest CPUID leaf is at least 7,
// CPUID.1:ECX has OSXSAVE (bit 27, without which XGETBV faults),
// CPUID.(7,0):EBX has AVX512F (bit 16), and XCR0 has the SSE, AVX,
// opmask, ZMM_Hi256 and Hi16_ZMM state bits (1, 2, 5, 6 and 7) set.
func avx512Usable() bool

// trigK holds the constants of sinAVX and cosAVX, each in the four lanes
// of a 256-bit word, in the order of the k* offsets in matrix_amd64.s.
// The reduction constants and the polynomial coefficients are math.Sin's
// and math.Cos's, from the Go source of package math, which on amd64 is
// compiled with every multiply and add rounded on its own (the compiler
// fuses only an explicit math.FMA there, at any GOAMD64 level).
var trigK = func() (k [22][4]uint64) {
	for i, v := range [...]uint64{
		1<<63 - 1, // |x| mask
		1 << 63,   // sign bit
		math.Float64bits(1 << 29),
		math.Float64bits(4 / math.Pi),
		math.Float64bits(0.5),
		math.Float64bits(0.25),
		math.Float64bits(1),
		math.Float64bits(7.85398125648498535156e-1),  // PI4A, π/4 in three parts
		math.Float64bits(3.77489470793079817668e-8),  // PI4B
		math.Float64bits(2.69515142907905952645e-15), // PI4C
		math.Float64bits(1.58962301576546568060e-10), // sin coefficients
		math.Float64bits(-2.50507477628578072866e-8),
		math.Float64bits(2.75573136213857245213e-6),
		math.Float64bits(-1.98412698295895385996e-4),
		math.Float64bits(8.33333333332211858878e-3),
		math.Float64bits(-1.66666666666666307295e-1),
		math.Float64bits(-1.13585365213876817300e-11), // cos coefficients
		math.Float64bits(2.08757008419747316778e-9),
		math.Float64bits(-2.75573141792967388112e-7),
		math.Float64bits(2.48015872888517045348e-5),
		math.Float64bits(-1.38888888888730564116e-3),
		math.Float64bits(4.16666666666665929218e-2),
	} {
		k[i] = [4]uint64{v, v, v, v}
	}
	return k
}()

// init picks the widest multiply kernel this CPU and operating system
// can run: axpy4AVX512, else axpy4AVX, else none (the portable loop). The
// 512-bit kernel's tails are AVX instructions, so it needs both tests.
// The tail k of either goes through axpyAVX.
func init() {
	if avxUsable() {
		axpy4Vec, axpyVec = axpy4AVX, axpyAVX
		sinVec, cosVec = sinAVX, cosAVX
		if avx512Usable() {
			axpy4Vec = axpy4AVX512
		}
	}
}
