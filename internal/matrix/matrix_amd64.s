#include "textflag.h"

// The vector kernel behind MulStrip (see axpy4Vec in matrix.go). One call
// is one group of four k for one or two rows of dst:
//
//	d[r][j] = (((d[r][j] + a[r][0]·b[0][j]) + a[r][1]·b[1][j]) + a[r][2]·b[2][j]) + a[r][3]·b[3][j]
//
// for r < rows and j < w, with +0 in place of the initial d[r][j] when
// first is set. Each lane does what the scalar loop does for its column:
// a VMULPD lane is MULSD, a VADDPD lane is ADDSD, both round to nearest
// even under the same MXCSR, and the four products are added in the same
// order. No instruction here fuses a multiply with an add. Columns are
// taken eight at a time, then four, then one (VMULSD/VADDSD), so no load
// or store touches memory outside the w columns.
//
// Register use, all bodies:
//	DI, R8          d row 0, d row 1
//	BX, R9, R10, R11  b rows 0..3
//	AX              byte offset of the current column
//	CX              columns left
//	DX              first
//	Y0..Y3          a[0][0..3] broadcast;  Y4..Y7  a[1][0..3] broadcast
//	Y8, Y9          row 0 sums;  Y10, Y11  row 1 sums
//	Y12, Y13        b values;  Y14  a product
// X15, which Go keeps zero, is not touched.

// One k of a group: eight, four or one column(s) of one b row into the
// sums of two rows (PAIR) or of one (ROW).
#define PAIR8(brow, a0, a1) \
	VMOVUPD (brow)(AX*1), Y12; \
	VMOVUPD 32(brow)(AX*1), Y13; \
	VMULPD  Y12, a0, Y14; \
	VADDPD  Y14, Y8, Y8; \
	VMULPD  Y13, a0, Y14; \
	VADDPD  Y14, Y9, Y9; \
	VMULPD  Y12, a1, Y14; \
	VADDPD  Y14, Y10, Y10; \
	VMULPD  Y13, a1, Y14; \
	VADDPD  Y14, Y11, Y11

#define PAIR4(brow, a0, a1) \
	VMOVUPD (brow)(AX*1), Y12; \
	VMULPD  Y12, a0, Y14; \
	VADDPD  Y14, Y8, Y8; \
	VMULPD  Y12, a1, Y14; \
	VADDPD  Y14, Y10, Y10

#define PAIR1(brow, a0, a1) \
	VMOVSD (brow)(AX*1), X12; \
	VMULSD X12, a0, X14; \
	VADDSD X14, X8, X8; \
	VMULSD X12, a1, X14; \
	VADDSD X14, X10, X10

#define ROW8(brow, a0) \
	VMOVUPD (brow)(AX*1), Y12; \
	VMOVUPD 32(brow)(AX*1), Y13; \
	VMULPD  Y12, a0, Y14; \
	VADDPD  Y14, Y8, Y8; \
	VMULPD  Y13, a0, Y14; \
	VADDPD  Y14, Y9, Y9

#define ROW4(brow, a0) \
	VMOVUPD (brow)(AX*1), Y12; \
	VMULPD  Y12, a0, Y14; \
	VADDPD  Y14, Y8, Y8

#define ROW1(brow, a0) \
	VMOVSD (brow)(AX*1), X12; \
	VMULSD X12, a0, X14; \
	VADDSD X14, X8, X8

// func axpy4AVX(d, a, b *float64, w, inner, stride, rows int, first bool)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-57
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), BX
	MOVQ    w+24(FP), CX
	MOVQ    stride+40(FP), R12
	MOVBQZX first+56(FP), DX
	SHLQ    $3, R12
	LEAQ    (BX)(R12*1), R9
	LEAQ    (R9)(R12*1), R10
	LEAQ    (R10)(R12*1), R11
	XORQ    AX, AX
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	CMPQ    rows+48(FP), $2
	JNE     row8

	MOVQ    inner+32(FP), R12
	LEAQ    (SI)(R12*8), SI
	LEAQ    (DI)(CX*8), R8
	VBROADCASTSD (SI), Y4
	VBROADCASTSD 8(SI), Y5
	VBROADCASTSD 16(SI), Y6
	VBROADCASTSD 24(SI), Y7

	CMPQ    CX, $8
	JLT     pair4
pair8:
	TESTQ   DX, DX
	JNE     pair8first
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD 32(DI)(AX*1), Y9
	VMOVUPD (R8)(AX*1), Y10
	VMOVUPD 32(R8)(AX*1), Y11
pair8sum:
	PAIR8(BX, Y0, Y4)
	PAIR8(R9, Y1, Y5)
	PAIR8(R10, Y2, Y6)
	PAIR8(R11, Y3, Y7)
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, 32(DI)(AX*1)
	VMOVUPD Y10, (R8)(AX*1)
	VMOVUPD Y11, 32(R8)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     pair8

pair4:
	CMPQ    CX, $4
	JLT     pair1
	TESTQ   DX, DX
	JNE     pair4first
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (R8)(AX*1), Y10
	JMP     pair4sum
pair4first:
	VXORPD  Y8, Y8, Y8
	VXORPD  Y10, Y10, Y10
pair4sum:
	PAIR4(BX, Y0, Y4)
	PAIR4(R9, Y1, Y5)
	PAIR4(R10, Y2, Y6)
	PAIR4(R11, Y3, Y7)
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y10, (R8)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

pair1:
	TESTQ   CX, CX
	JEQ     done
	TESTQ   DX, DX
	JNE     pair1first
	VMOVSD  (DI)(AX*1), X8
	VMOVSD  (R8)(AX*1), X10
	JMP     pair1sum
pair1first:
	VXORPD  X8, X8, X8
	VXORPD  X10, X10, X10
pair1sum:
	PAIR1(BX, X0, X4)
	PAIR1(R9, X1, X5)
	PAIR1(R10, X2, X6)
	PAIR1(R11, X3, X7)
	VMOVSD  X8, (DI)(AX*1)
	VMOVSD  X10, (R8)(AX*1)
	ADDQ    $8, AX
	DECQ    CX
	JMP     pair1

row8:
	CMPQ    CX, $8
	JLT     row4
row8loop:
	TESTQ   DX, DX
	JNE     row8first
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD 32(DI)(AX*1), Y9
row8sum:
	ROW8(BX, Y0)
	ROW8(R9, Y1)
	ROW8(R10, Y2)
	ROW8(R11, Y3)
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     row8loop

row4:
	CMPQ    CX, $4
	JLT     row1
	TESTQ   DX, DX
	JNE     row4first
	VMOVUPD (DI)(AX*1), Y8
	JMP     row4sum
row4first:
	VXORPD  Y8, Y8, Y8
row4sum:
	ROW4(BX, Y0)
	ROW4(R9, Y1)
	ROW4(R10, Y2)
	ROW4(R11, Y3)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

row1:
	TESTQ   CX, CX
	JEQ     done
	TESTQ   DX, DX
	JNE     row1first
	VMOVSD  (DI)(AX*1), X8
	JMP     row1sum
row1first:
	VXORPD  X8, X8, X8
row1sum:
	ROW1(BX, X0)
	ROW1(R9, X1)
	ROW1(R10, X2)
	ROW1(R11, X3)
	VMOVSD  X8, (DI)(AX*1)
	ADDQ    $8, AX
	DECQ    CX
	JMP     row1

done:
	VZEROUPPER
	RET

	// The wide loops' starts from +0, out of line so that the common
	// case runs without a taken branch.
pair8first:
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	VXORPD  Y10, Y10, Y10
	VXORPD  Y11, Y11, Y11
	JMP     pair8sum
row8first:
	VXORPD  Y8, Y8, Y8
	VXORPD  Y9, Y9, Y9
	JMP     row8sum

// func avxUsable() bool
TEXT ·avxUsable(SB), NOSPLIT, $0-1
	MOVB    $0, ret+0(FP)
	MOVL    $1, AX
	XORL    CX, CX
	CPUID
	ANDL    $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL    CX, $0x18000000
	JNE     no
	XORL    CX, CX
	XGETBV                  // XCR0 into DX:AX
	ANDL    $6, AX          // SSE (bit 1) and AVX (bit 2) state enabled
	CMPL    AX, $6
	JNE     no
	MOVB    $1, ret+0(FP)
no:
	RET
