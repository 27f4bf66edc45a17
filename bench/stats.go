package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (its default "exclusive" method),
// which is what the driver uses to judge run-to-run spread. Fewer than
// two values have no spread: all three cut points are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based scale; like Python, clamp the
		// interval first and interpolate (or extrapolate) from it.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of the
// ascending samples, and whether at least ten samples lie beyond it —
// the rule under which a tail percentile is worth gating. p90 therefore
// needs 100 samples and p99 needs 1000.
func percentile(asc []float64, p float64) (value float64, supported bool) {
	n := len(asc)
	if n == 0 {
		return math.NaN(), false
	}
	rank := int(math.Ceil(p * float64(n)))
	rank = min(max(rank, 1), n)
	return asc[rank-1], n-rank >= 10
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// exactMean sums in ascending order, so a workload whose inputs are the
// same set in another order reports a bit-identical mean.
func exactMean(v []float64) float64 { return mean(sorted(v)) }
