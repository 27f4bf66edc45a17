#include "textflag.h"

// The vector kernels behind MulStrip (see axpy4Vec in matrix.go): axpy4AVX
// here, and axpy4AVX512 after it. One call is one group of four k for one
// or two rows of dst:
//
//	d[r][j] = (((d[r][j] + a[r][0]·b[0][j]) + a[r][1]·b[1][j]) + a[r][2]·b[2][j]) + a[r][3]·b[3][j]
//
// for r < rows and j < w, with +0 in place of the initial d[r][j] when
// first is set. Each lane does what the scalar loop does for its column:
// a VMULPD lane is MULSD, a VADDPD lane is ADDSD, both round to nearest
// even under the same MXCSR, and the four products are added in the same
// order. No instruction here fuses a multiply with an add. axpy4AVX
// takes columns eight at a time, then four, then one (VMULSD/VADDSD);
// axpy4AVX512 takes sixteen, then eight, then axpy4AVX's four and one. So
// no load or store touches memory outside the w columns.
//
// Register use, axpy4AVX and axpy4AVX512's four- and one-column steps:
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

// axpy4AVX512 is axpy4AVX at 512 bits: the same group, the same
// operations on the same operands in the same order, sixteen columns to a
// pass in two ZMM registers a row, then eight in one. The last seven
// columns or fewer are axpy4AVX's own four- and one-column steps, with the
// a values broadcast again into Y0..Y7, so no load or store reaches
// outside the w columns here either. Every ZMM instruction is AVX512F:
// zeroing is VPXORQ (VXORPD on a ZMM register is AVX512DQ), and a YMM or
// XMM register above 15 is never named, which would take AVX512VL.
//
// Register use, beyond what its tails share with axpy4AVX:
//	R13             a row 1
//	Z16..Z19        a[0][0..3] broadcast;  Z20..Z23  a[1][0..3] broadcast
//	Z24, Z25        row 0 sums;  Z26, Z27  row 1 sums
//	Z28, Z29        b values;  Z30, Z31  products

// One k of a group: sixteen or eight columns of one b row into the sums
// of two rows (ZPAIR) or of one (ZROW).
#define ZPAIR16(brow, a0, a1) \
	VMOVUPD (brow)(AX*1), Z28; \
	VMOVUPD 64(brow)(AX*1), Z29; \
	VMULPD  Z28, a0, Z30; \
	VADDPD  Z30, Z24, Z24; \
	VMULPD  Z29, a0, Z31; \
	VADDPD  Z31, Z25, Z25; \
	VMULPD  Z28, a1, Z30; \
	VADDPD  Z30, Z26, Z26; \
	VMULPD  Z29, a1, Z31; \
	VADDPD  Z31, Z27, Z27

#define ZPAIR8(brow, a0, a1) \
	VMOVUPD (brow)(AX*1), Z28; \
	VMULPD  Z28, a0, Z30; \
	VADDPD  Z30, Z24, Z24; \
	VMULPD  Z28, a1, Z31; \
	VADDPD  Z31, Z26, Z26

#define ZROW16(brow, a0) \
	VMOVUPD (brow)(AX*1), Z28; \
	VMOVUPD 64(brow)(AX*1), Z29; \
	VMULPD  Z28, a0, Z30; \
	VADDPD  Z30, Z24, Z24; \
	VMULPD  Z29, a0, Z31; \
	VADDPD  Z31, Z25, Z25

#define ZROW8(brow, a0) \
	VMOVUPD (brow)(AX*1), Z28; \
	VMULPD  Z28, a0, Z30; \
	VADDPD  Z30, Z24, Z24

// func axpy4AVX512(d, a, b *float64, w, inner, stride, rows int, first bool)
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-57
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
	VBROADCASTSD (SI), Z16
	VBROADCASTSD 8(SI), Z17
	VBROADCASTSD 16(SI), Z18
	VBROADCASTSD 24(SI), Z19
	CMPQ    rows+48(FP), $2
	JNE     zrow16

	MOVQ    inner+32(FP), R12
	LEAQ    (SI)(R12*8), R13
	LEAQ    (DI)(CX*8), R8
	VBROADCASTSD (R13), Z20
	VBROADCASTSD 8(R13), Z21
	VBROADCASTSD 16(R13), Z22
	VBROADCASTSD 24(R13), Z23

	CMPQ    CX, $16
	JLT     zpair8
zpair16:
	TESTQ   DX, DX
	JNE     zpair16first
	VMOVUPD (DI)(AX*1), Z24
	VMOVUPD 64(DI)(AX*1), Z25
	VMOVUPD (R8)(AX*1), Z26
	VMOVUPD 64(R8)(AX*1), Z27
zpair16sum:
	ZPAIR16(BX, Z16, Z20)
	ZPAIR16(R9, Z17, Z21)
	ZPAIR16(R10, Z18, Z22)
	ZPAIR16(R11, Z19, Z23)
	VMOVUPD Z24, (DI)(AX*1)
	VMOVUPD Z25, 64(DI)(AX*1)
	VMOVUPD Z26, (R8)(AX*1)
	VMOVUPD Z27, 64(R8)(AX*1)
	ADDQ    $128, AX
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     zpair16

zpair8:
	CMPQ    CX, $8
	JLT     zpairtail
	TESTQ   DX, DX
	JNE     zpair8first
	VMOVUPD (DI)(AX*1), Z24
	VMOVUPD (R8)(AX*1), Z26
	JMP     zpair8sum
zpair8first:
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z26, Z26, Z26
zpair8sum:
	ZPAIR8(BX, Z16, Z20)
	ZPAIR8(R9, Z17, Z21)
	ZPAIR8(R10, Z18, Z22)
	ZPAIR8(R11, Z19, Z23)
	VMOVUPD Z24, (DI)(AX*1)
	VMOVUPD Z26, (R8)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX

zpairtail:
	TESTQ   CX, CX
	JEQ     zdone
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD (R13), Y4
	VBROADCASTSD 8(R13), Y5
	VBROADCASTSD 16(R13), Y6
	VBROADCASTSD 24(R13), Y7
	CMPQ    CX, $4
	JLT     zpair1
	TESTQ   DX, DX
	JNE     zpair4first
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD (R8)(AX*1), Y10
	JMP     zpair4sum
zpair4first:
	VXORPD  Y8, Y8, Y8
	VXORPD  Y10, Y10, Y10
zpair4sum:
	PAIR4(BX, Y0, Y4)
	PAIR4(R9, Y1, Y5)
	PAIR4(R10, Y2, Y6)
	PAIR4(R11, Y3, Y7)
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y10, (R8)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

zpair1:
	TESTQ   CX, CX
	JEQ     zdone
	TESTQ   DX, DX
	JNE     zpair1first
	VMOVSD  (DI)(AX*1), X8
	VMOVSD  (R8)(AX*1), X10
	JMP     zpair1sum
zpair1first:
	VXORPD  X8, X8, X8
	VXORPD  X10, X10, X10
zpair1sum:
	PAIR1(BX, X0, X4)
	PAIR1(R9, X1, X5)
	PAIR1(R10, X2, X6)
	PAIR1(R11, X3, X7)
	VMOVSD  X8, (DI)(AX*1)
	VMOVSD  X10, (R8)(AX*1)
	ADDQ    $8, AX
	DECQ    CX
	JMP     zpair1

zrow16:
	CMPQ    CX, $16
	JLT     zrow8
zrow16loop:
	TESTQ   DX, DX
	JNE     zrow16first
	VMOVUPD (DI)(AX*1), Z24
	VMOVUPD 64(DI)(AX*1), Z25
zrow16sum:
	ZROW16(BX, Z16)
	ZROW16(R9, Z17)
	ZROW16(R10, Z18)
	ZROW16(R11, Z19)
	VMOVUPD Z24, (DI)(AX*1)
	VMOVUPD Z25, 64(DI)(AX*1)
	ADDQ    $128, AX
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     zrow16loop

zrow8:
	CMPQ    CX, $8
	JLT     zrowtail
	TESTQ   DX, DX
	JNE     zrow8first
	VMOVUPD (DI)(AX*1), Z24
	JMP     zrow8sum
zrow8first:
	VPXORQ  Z24, Z24, Z24
zrow8sum:
	ZROW8(BX, Z16)
	ZROW8(R9, Z17)
	ZROW8(R10, Z18)
	ZROW8(R11, Z19)
	VMOVUPD Z24, (DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX

zrowtail:
	TESTQ   CX, CX
	JEQ     zdone
	VBROADCASTSD (SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	CMPQ    CX, $4
	JLT     zrow1
	TESTQ   DX, DX
	JNE     zrow4first
	VMOVUPD (DI)(AX*1), Y8
	JMP     zrow4sum
zrow4first:
	VXORPD  Y8, Y8, Y8
zrow4sum:
	ROW4(BX, Y0)
	ROW4(R9, Y1)
	ROW4(R10, Y2)
	ROW4(R11, Y3)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

zrow1:
	TESTQ   CX, CX
	JEQ     zdone
	TESTQ   DX, DX
	JNE     zrow1first
	VMOVSD  (DI)(AX*1), X8
	JMP     zrow1sum
zrow1first:
	VXORPD  X8, X8, X8
zrow1sum:
	ROW1(BX, X0)
	ROW1(R9, X1)
	ROW1(R10, X2)
	ROW1(R11, X3)
	VMOVSD  X8, (DI)(AX*1)
	ADDQ    $8, AX
	DECQ    CX
	JMP     zrow1

zdone:
	VZEROUPPER
	RET

	// The wide loops' starts from +0, out of line as in axpy4AVX.
zpair16first:
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z25, Z25, Z25
	VPXORQ  Z26, Z26, Z26
	VPXORQ  Z27, Z27, Z27
	JMP     zpair16sum
zrow16first:
	VPXORQ  Z24, Z24, Z24
	VPXORQ  Z25, Z25, Z25
	JMP     zrow16sum

// axpyAVX is axpyVec: one k of one row, the a value broadcast into Y0
// and the sums of d in Y8 and Y9, through ROW8, ROW4 and ROW1 with d
// loaded first, so each lane does the scalar loop's d + a·b.
//
// func axpyAVX(d, a, b *float64, w int)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    b+16(FP), BX
	MOVQ    w+24(FP), CX
	XORQ    AX, AX
	VBROADCASTSD (SI), Y0
	CMPQ    CX, $8
	JLT     one4
one8:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD 32(DI)(AX*1), Y9
	ROW8(BX, Y0)
	VMOVUPD Y8, (DI)(AX*1)
	VMOVUPD Y9, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     one8

one4:
	CMPQ    CX, $4
	JLT     one1
	VMOVUPD (DI)(AX*1), Y8
	ROW4(BX, Y0)
	VMOVUPD Y8, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX

one1:
	TESTQ   CX, CX
	JEQ     onedone
	VMOVSD  (DI)(AX*1), X8
	ROW1(BX, X0)
	VMOVSD  X8, (DI)(AX*1)
	ADDQ    $8, AX
	DECQ    CX
	JMP     one1

onedone:
	VZEROUPPER
	RET

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

// func avx512Usable() bool
TEXT ·avx512Usable(SB), NOSPLIT, $0-1
	MOVB    $0, ret+0(FP)
	XORL    AX, AX
	XORL    CX, CX
	CPUID                   // the highest standard leaf into AX
	CMPL    AX, $7
	JCS     no512
	MOVL    $1, AX
	XORL    CX, CX
	CPUID
	ANDL    $0x08000000, CX // OSXSAVE (bit 27): XGETBV may be executed
	JEQ     no512
	MOVL    $7, AX
	XORL    CX, CX
	CPUID                   // leaf 7, subleaf 0
	ANDL    $0x00010000, BX // AVX512F (bit 16)
	JEQ     no512
	XORL    CX, CX
	XGETBV                  // XCR0 into DX:AX
	ANDL    $0xe6, AX       // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM (bits 1, 2, 5, 6, 7)
	CMPL    AX, $0xe6
	JNE     no512
	MOVB    $1, ret+0(FP)
no512:
	RET

// The vector kernels behind Sin and Cos (see sinVec in trig.go): math.sin
// and math.cos of package math's Go source, one lane per argument. For
// 0 < |x| < 2²⁹ that source computes
//
//	j = trunc(|x|·(4/π)),  plus one if odd
//	z = ((|x| − j·PI4A) − j·PI4B) − j·PI4C,  zz = z·z
//	S = z + (z·zz)·(((((s0·zz + s1)·zz + s2)·zz + s3)·zz + s4)·zz + s5)
//	C = (1 − 0.5·zz) + (zz·zz)·(((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5)
//
// and returns, with the octant o = j mod 8 ∈ {0, 2, 4, 6}, for the sine C
// where o ∈ {2, 6} and S otherwise, negated when o ≥ 4 differs from
// x < 0; for the cosine S where o ∈ {2, 6} and C otherwise, negated when
// o ∈ {2, 4}. Here j stays a float: h = ceil(trunc(|x|·(4/π))/2) and
// j = h + h, so o ∈ {2, 6} is h odd and o ≥ 4 is frac(h/4) ≥ 1/2, all of
// it exact (j < 2³⁰) and done with VROUNDPD and scalings by powers of
// two, so that only AVX is needed. Every VMULPD, VADDPD and VSUBPD lane
// rounds as the scalar MULSD, ADDSD and SUBSD of the compiled math.sin
// do, on the same operands in the same order, and none is fused.
//
// The main loop takes two groups of four, their steps interleaved so the
// two dependency chains overlap; the second loop takes one. A group with
// an argument out of range ends the call, and the caller takes it to
// math.Sin or math.Cos.
//
// Register use, both kernels:
//	SI, DI          src, dst
//	AX              byte offset of the current group
//	CX              arguments left
//	R8              trigK
//	Y0..Y5          first group:  A |x|, then z;  B h, then o ≥ 4;
//	                Z zz;  S;  C;  T scratch
//	Y6..Y11         second group, likewise
//	Y12             zero;  Y13, Y14  range masks
//
// VCMPPD predicates: 1 LT, 4 NEQ, 13 GE. VROUNDPD modes: 1 floor, 2 ceil,
// 3 truncate.

// Offsets of the constants in trigK (matrix_amd64.go), 32 bytes each.
#define kAbs 0
#define kSign 32
#define kLimit 64
#define kFourOverPi 96
#define kHalf 128
#define kQuarter 160
#define kOne 192
#define kPI4A 224
#define kPI4B 256
#define kPI4C 288
#define kS0 320
#define kS1 352
#define kS2 384
#define kS3 416
#define kS4 448
#define kS5 480
#define kC0 512
#define kC1 544
#define kC2 576
#define kC3 608
#define kC4 640
#define kC5 672

// |x| of the group at off into A.
#define LOADABS(off, A) \
	VMOVUPD off(SI)(AX*1), A; \
	VANDPD  kAbs(R8), A, A

// From |x| in A: z in A and h in B.
#define REDUCE(A, B, S, C, T) \
	VMULPD   kFourOverPi(R8), A, B; \
	VROUNDPD $3, B, B; \
	VMULPD   kHalf(R8), B, B; \
	VROUNDPD $2, B, B; \
	VADDPD   B, B, T; \
	VMULPD   kPI4A(R8), T, S; \
	VMULPD   kPI4B(R8), T, C; \
	VMULPD   kPI4C(R8), T, T; \
	VSUBPD   S, A, A; \
	VSUBPD   C, A, A; \
	VSUBPD   T, A, A

// From z in A: zz in Z and S.
#define SINPOLY(A, Z, S, T) \
	VMULPD A, A, Z; \
	VMULPD kS0(R8), Z, S; \
	VADDPD kS1(R8), S, S; \
	VMULPD Z, S, S; \
	VADDPD kS2(R8), S, S; \
	VMULPD Z, S, S; \
	VADDPD kS3(R8), S, S; \
	VMULPD Z, S, S; \
	VADDPD kS4(R8), S, S; \
	VMULPD Z, S, S; \
	VADDPD kS5(R8), S, S; \
	VMULPD Z, A, T; \
	VMULPD S, T, S; \
	VADDPD S, A, S

// From zz in Z: C. Overwrites A.
#define COSPOLY(A, Z, C, T) \
	VMULPD  kC0(R8), Z, C; \
	VADDPD  kC1(R8), C, C; \
	VMULPD  Z, C, C; \
	VADDPD  kC2(R8), C, C; \
	VMULPD  Z, C, C; \
	VADDPD  kC3(R8), C, C; \
	VMULPD  Z, C, C; \
	VADDPD  kC4(R8), C, C; \
	VMULPD  Z, C, C; \
	VADDPD  kC5(R8), C, C; \
	VMULPD  Z, Z, T; \
	VMULPD  C, T, C; \
	VMULPD  kHalf(R8), Z, T; \
	VMOVUPD kOne(R8), A; \
	VSUBPD  T, A, A; \
	VADDPD  C, A, C

// From h in B: the mask o ∈ {2, 6} in A and the mask o ≥ 4 in B.
#define OCTANT(A, B, T) \
	VMULPD   kHalf(R8), B, T; \
	VROUNDPD $1, T, A; \
	VCMPPD   $4, A, T, A; \
	VMULPD   kQuarter(R8), B, T; \
	VROUNDPD $1, T, B; \
	VSUBPD   B, T, T; \
	VCMPPD   $13, kHalf(R8), T, B

// The sine of the group at off from the octant masks and the
// polynomials.
#define SINOUT(off, A, B, S, C, T) \
	VBLENDVPD A, C, S, S; \
	VMOVUPD   off(SI)(AX*1), T; \
	VANDPD    kSign(R8), T, T; \
	VANDPD    kSign(R8), B, B; \
	VXORPD    B, T, T; \
	VXORPD    T, S, S; \
	VMOVUPD   S, off(DI)(AX*1)

// The cosine of the group at off, likewise.
#define COSOUT(off, A, B, S, C) \
	VBLENDVPD A, S, C, C; \
	VXORPD    A, B, B; \
	VANDPD    kSign(R8), B, B; \
	VXORPD    B, C, C; \
	VMOVUPD   C, off(DI)(AX*1)

// 0 < |x| < 2²⁹ for every lane of A, into M; NaN fails both tests.
#define SINRANGE(A, M, T) \
	VCMPPD $1, kLimit(R8), A, M; \
	VCMPPD $4, Y12, A, T; \
	VANDPD T, M, M

// func sinAVX(dst, src *float64, n int) int
TEXT ·sinAVX(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	LEAQ    ·trigK(SB), R8
	XORQ    AX, AX
	VXORPD  Y12, Y12, Y12
sin8:
	CMPQ    CX, $8
	JLT     sin4
	LOADABS(0, Y0)
	LOADABS(32, Y6)
	SINRANGE(Y0, Y13, Y14)
	VMOVMSKPD Y13, BX
	SINRANGE(Y6, Y13, Y14)
	VMOVMSKPD Y13, DX
	SHLQ    $4, DX
	ORQ     DX, BX
	CMPQ    BX, $0xff
	JNE     sin4
	REDUCE(Y0, Y1, Y3, Y4, Y5)
	REDUCE(Y6, Y7, Y9, Y10, Y11)
	SINPOLY(Y0, Y2, Y3, Y5)
	SINPOLY(Y6, Y8, Y9, Y11)
	COSPOLY(Y0, Y2, Y4, Y5)
	COSPOLY(Y6, Y8, Y10, Y11)
	OCTANT(Y0, Y1, Y5)
	OCTANT(Y6, Y7, Y11)
	SINOUT(0, Y0, Y1, Y3, Y4, Y5)
	SINOUT(32, Y6, Y7, Y9, Y10, Y11)
	ADDQ    $64, AX
	SUBQ    $8, CX
	JMP     sin8
sin4:
	CMPQ    CX, $4
	JLT     sindone
	LOADABS(0, Y0)
	SINRANGE(Y0, Y13, Y14)
	VMOVMSKPD Y13, BX
	CMPQ    BX, $15
	JNE     sindone
	REDUCE(Y0, Y1, Y3, Y4, Y5)
	SINPOLY(Y0, Y2, Y3, Y5)
	COSPOLY(Y0, Y2, Y4, Y5)
	OCTANT(Y0, Y1, Y5)
	SINOUT(0, Y0, Y1, Y3, Y4, Y5)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     sin8
sindone:
	SHRQ    $3, AX
	MOVQ    AX, ret+24(FP)
	VZEROUPPER
	RET

// func cosAVX(dst, src *float64, n int) int
TEXT ·cosAVX(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	LEAQ    ·trigK(SB), R8
	XORQ    AX, AX
cos8:
	CMPQ    CX, $8
	JLT     cos4
	LOADABS(0, Y0)
	LOADABS(32, Y6)
	VCMPPD  $1, kLimit(R8), Y0, Y13
	VCMPPD  $1, kLimit(R8), Y6, Y14
	VANDPD  Y14, Y13, Y13
	VMOVMSKPD Y13, BX
	CMPQ    BX, $15
	JNE     cos4
	REDUCE(Y0, Y1, Y3, Y4, Y5)
	REDUCE(Y6, Y7, Y9, Y10, Y11)
	SINPOLY(Y0, Y2, Y3, Y5)
	SINPOLY(Y6, Y8, Y9, Y11)
	COSPOLY(Y0, Y2, Y4, Y5)
	COSPOLY(Y6, Y8, Y10, Y11)
	OCTANT(Y0, Y1, Y5)
	OCTANT(Y6, Y7, Y11)
	COSOUT(0, Y0, Y1, Y3, Y4)
	COSOUT(32, Y6, Y7, Y9, Y10)
	ADDQ    $64, AX
	SUBQ    $8, CX
	JMP     cos8
cos4:
	CMPQ    CX, $4
	JLT     cosdone
	LOADABS(0, Y0)
	VCMPPD  $1, kLimit(R8), Y0, Y13
	VMOVMSKPD Y13, BX
	CMPQ    BX, $15
	JNE     cosdone
	REDUCE(Y0, Y1, Y3, Y4, Y5)
	SINPOLY(Y0, Y2, Y3, Y5)
	COSPOLY(Y0, Y2, Y4, Y5)
	OCTANT(Y0, Y1, Y5)
	COSOUT(0, Y0, Y1, Y3, Y4)
	ADDQ    $32, AX
	SUBQ    $4, CX
	JMP     cos8
cosdone:
	SHRQ    $3, AX
	MOVQ    AX, ret+24(FP)
	VZEROUPPER
	RET
