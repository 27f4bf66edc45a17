package matrix

import (
	"fmt"
	"math"
)

// sinVec and cosVec are the vector forms of Sin and Cos. Over the first n
// elements of src, four at a time, each writes to dst what math.Sin (or
// math.Cos) gives for every element, and returns how many it wrote: a
// multiple of four, short of n when fewer than four are left or when the
// next group holds an argument outside its range (see Sin). They are nil
// unless the architecture's file (matrix_amd64.go) has a kernel this CPU
// can run, in which case its init sets them, once; tests clear them to
// reach the scalar loop on the same machine.
var sinVec, cosVec func(dst, src *float64, n int) int

// Sin sets dst[i] = math.Sin(src[i]) for every i, bit for bit. dst and
// src must be the same length; they may be the same slice.
//
// Where sinVec is set, groups of four arguments with 0 < |x| < 2²⁹ go
// through it: math.Sin's own floating-point operations — the Cody–Waite
// reduction by π/4 in three parts, then one of its two polynomials — one
// lane per argument, each rounded on its own, none fused. Everything else
// (±0, NaN, ±Inf, |x| ≥ 2²⁹, where math.Sin switches to Payne–Hanek
// reduction, and a tail shorter than a group) is math.Sin itself.
func Sin(dst, src []float64) { trig(dst, src, sinVec, math.Sin) }

// Cos sets dst[i] = math.Cos(src[i]) for every i, bit for bit, as Sin
// does for the sine; its vector lanes take |x| < 2²⁹, zero included.
func Cos(dst, src []float64) { trig(dst, src, cosVec, math.Cos) }

func trig(dst, src []float64, vec func(dst, src *float64, n int) int, scalar func(float64) float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("matrix: trig over %d arguments into %d results", len(src), len(dst)))
	}
	i := 0
	for vec != nil && len(src)-i >= 4 {
		i += vec(&dst[i], &src[i], len(src)-i)
		if len(src)-i < 4 {
			break
		}
		// The vector kernel stopped at a group it does not take.
		for end := i + 4; i < end; i++ {
			dst[i] = scalar(src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = scalar(src[i])
	}
}
