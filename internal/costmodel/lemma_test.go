package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
)

// The Lemma 1–2 tests check the declaration itself: every row list is a
// sum of maxes of monomials with nonnegative coefficients and finite
// exponents (a generalized posynomial, convex in x = ln p), and the
// branches of its maxes, evaluated by plain math.Pow, reproduce the float
// path that reads the same rows in the equations' operation order.

// term is one monomial c·p_i^ei·p_j^ej of a branch.
type term struct{ c, ei, ej float64 }

// branches expands component comp of k, at the coefficients coefs and byte
// length l, into one sum of monomials per choice of a member in every max
// group; the component is their pointwise maximum. A relaxed row enters as
// written, its upper bound.
func branches(k *kindCost, comp int, coefs []float64, l float64) [][]term {
	n := 1
	for _, ms := range k.maxes {
		n *= len(ms)
	}
	out := make([][]term, n)
	for b := range out {
		for _, r := range k.rows {
			if r.comp != comp {
				continue
			}
			tm := term{coefs[r.coef], r.ei, r.ej}
			if r.perByte {
				tm.c = l * tm.c
			}
			if r.max > 0 {
				pick := b
				for _, ms := range k.maxes[:r.max-1] {
					pick /= len(ms)
				}
				ms := k.maxes[r.max-1]
				m := ms[pick%len(ms)]
				tm.ei += m.ei
				tm.ej += m.ej
			}
			out[b] = append(out[b], tm)
		}
	}
	return out
}

// wellFormed reports whether every term has a finite coefficient ≥ 0 and
// finite exponents: whether the sum is a posynomial.
func wellFormed(ts []term) bool {
	for _, tm := range ts {
		for _, v := range []float64{tm.c, tm.ei, tm.ej} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if tm.c < 0 {
			return false
		}
	}
	return true
}

func value(ts []term, pi, pj float64) float64 {
	s := 0.0
	for _, tm := range ts {
		s += tm.c * math.Pow(pi, tm.ei) * math.Pow(pj, tm.ej)
	}
	return s
}

// maxValue is the component the branches describe: their pointwise max,
// or NaN when a branch is no posynomial.
func maxValue(bs [][]term, pi, pj float64) float64 {
	best := math.Inf(-1)
	for _, b := range bs {
		if !wellFormed(b) {
			return math.NaN()
		}
		best = math.Max(best, value(b, pi, pj))
	}
	return best
}

// shift raises every term's exponents by (di, dj): the component times
// p_i^di·p_j^dj.
func shift(ts []term, di, dj float64) []term {
	out := make([]term, len(ts))
	for k, tm := range ts {
		out[k] = term{tm.c, tm.ei + di, tm.ej + dj}
	}
	return out
}

// TestLemma1: t^C and t^C·p are posynomials — the processing rows, and
// the same rows with every p exponent raised by 1 — and they evaluate to
// Equation 1 and to Equation 1 times p.
func TestLemma1(t *testing.T) {
	f := func(aRaw, pRaw uint8, tRaw uint16) bool {
		lp := LoopParams{Alpha: float64(aRaw) / 255, Tau: 0.001 + float64(tRaw)/100}
		p := 1 + float64(pRaw)/4
		coefs := lp.coefs()
		var tc []term
		for _, r := range processingRows {
			if r.max != 0 || r.relaxed || r.ej != 0 {
				return false
			}
			tc = append(tc, term{coefs[r.coef], r.ei, 0})
		}
		tcp := shift(tc, 1, 0)
		return wellFormed(tc) && wellFormed(tcp) &&
			approx(value(tc, p, 1), lp.Processing(p), 1e-9) &&
			approx(value(tcp, p, 1), lp.Processing(p)*p, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma2For2D: every 2D component is a posynomial outright (no max,
// no relaxed row), and so are the products t^S·p_i and t^R·p_j of the
// Section 2 conditions; all of them match the float path.
func TestLemma2For2D(t *testing.T) {
	k := costOf(mdg.Transfer2D)
	if len(k.maxes) != 0 {
		t.Fatalf("2D declares %d max groups, want none", len(k.maxes))
	}
	tp := paperTransfer
	tp.Tn = 6e-7
	coefs := tp.coefs()
	f := func(piRaw, pjRaw uint8, lRaw uint16) bool {
		pi := 1 + float64(piRaw)/4
		pj := 1 + float64(pjRaw)/4
		bytes := int(lRaw) + 1
		c := tp.Transfer(mdg.Transfer2D, bytes, pi, pj)
		comp := func(cp int) []term { return branches(k, cp, coefs[:], float64(bytes))[0] }
		s, n, r := comp(tS), comp(tD), comp(tR)
		sp, rp := shift(s, 1, 0), shift(r, 0, 1)
		for _, ts := range [][]term{s, n, r, sp, rp} {
			if !wellFormed(ts) {
				return false
			}
		}
		return approx(value(s, pi, pj), c.Send, 1e-9) && approx(value(n, pi, pj), c.Net, 1e-9) &&
			approx(value(r, pi, pj), c.Recv, 1e-9) &&
			approx(value(sp, pi, pj), c.Send*pi, 1e-9) && approx(value(rp, pi, pj), c.Recv*pj, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkGeneralized holds one kind's send and receive components to the max
// of their posynomial branches, and its relaxed network row to an upper
// bound on the float network cost that is exact when p_i >= p_j.
func checkGeneralized(kind mdg.TransferKind, bytes int, pi, pj float64) bool {
	tp := paperTransfer
	tp.Tn = 6e-7
	k := costOf(kind)
	coefs := tp.coefs()
	l := float64(bytes)
	c := tp.Transfer(kind, bytes, pi, pj)
	net := maxValue(branches(k, tD, coefs[:], l), pi, pj)
	netOK := net >= c.Net*(1-1e-12)
	if pi >= pj {
		netOK = approx(net, c.Net, 1e-9)
	}
	return netOK && approx(maxValue(branches(k, tS, coefs[:], l), pi, pj), c.Send, 1e-9) &&
		approx(maxValue(branches(k, tR, coefs[:], l), pi, pj), c.Recv, 1e-9)
}

// TestLemma2For1D: each 1D component is the max of two posynomial branches
// (a generalized posynomial) that reproduces the float path, branch A —
// max(p_i,p_j) = p_i — selected when p_i >= p_j.
func TestLemma2For1D(t *testing.T) {
	k := costOf(mdg.Transfer1D)
	coefs := paperTransfer.coefs()
	f := func(piRaw, pjRaw uint8, lRaw uint16) bool {
		pi := 1 + float64(piRaw)/4
		pj := 1 + float64(pjRaw)/4
		bytes := int(lRaw) + 1
		for _, cp := range []int{tS, tR} {
			bs := branches(k, cp, coefs[:], float64(bytes))
			if len(bs) != 2 || (pi >= pj) != (value(bs[0], pi, pj) >= value(bs[1], pi, pj)*(1-1e-12)) {
				return false
			}
		}
		return checkGeneralized(mdg.Transfer1D, bytes, pi, pj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestLemma2ForGridKinds: every grid-kind component is the max of
// posynomial branches — half-integer exponents included — that reproduces
// the float path (the Lemma-2 extension for grid kinds).
func TestLemma2ForGridKinds(t *testing.T) {
	kinds := []mdg.TransferKind{mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G}
	f := func(piRaw, pjRaw uint8, kRaw uint8, lRaw uint16) bool {
		pi := 1 + float64(piRaw)/4
		pj := 1 + float64(pjRaw)/4
		return checkGeneralized(kinds[int(kRaw)%3], int(lRaw)+1, pi, pj)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryAcceptedKindIsDeclared: every transfer kind mdg.Validate
// accepts has a well-formed declaration — each component has rows, adjacent
// in emission order; every max group is a nonempty max of monomials with
// finite exponents; the only relaxed rows are network rows L·t_n/p_i — and
// Transfer and TransferExprs panic on every kind it rejects.
func TestEveryAcceptedKindIsDeclared(t *testing.T) {
	accepted := 0
	for k := range 256 {
		kind := mdg.TransferKind(k)
		var g mdg.Graph
		a := g.AddNode(mdg.Node{Name: "a", Tau: 1})
		b := g.AddNode(mdg.Node{Name: "b", Tau: 1})
		g.AddEdge(a, b, mdg.Transfer{Bytes: 8, Kind: kind})
		if g.Validate() != nil {
			for name, fn := range map[string]func(){
				"Transfer":      func() { paperTransfer.Transfer(kind, 8, 1, 1) },
				"TransferExprs": func() { var eg expr.Graph; TransferExprs(&eg, paperTransfer, kind, 8, 0, 1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s(%v) did not panic on a kind mdg rejects", name, kind)
						}
					}()
					fn()
				}()
			}
			continue
		}
		accepted++
		if int(kind) >= len(transferKinds) || transferKinds[kind].rows == nil {
			t.Errorf("mdg accepts %v, which has no declaration", kind)
			continue
		}
		if err := checkDeclaration(&transferKinds[kind]); err != "" {
			t.Errorf("%v: %s", kind, err)
		}
	}
	if accepted != 5 {
		t.Errorf("mdg accepts %d transfer kinds, want the five of Figure 4 and the grid extension", accepted)
	}
}

// checkDeclaration returns what is wrong with k, or "".
func checkDeclaration(k *kindCost) string {
	if len(k.maxes) > maxGroups {
		return "more max groups than maxGroups"
	}
	for _, ms := range k.maxes {
		if len(ms) == 0 {
			return "empty max group"
		}
		for _, m := range ms {
			if !wellFormed([]term{{1, m.ei, m.ej}}) {
				return "max group member is no monomial"
			}
		}
	}
	var seen [3]bool
	for n, r := range k.rows {
		if n > 0 && k.rows[n-1].comp != r.comp && seen[r.comp] {
			return "a component's rows are not adjacent"
		}
		seen[r.comp] = true
		switch {
		case r.coef < tss || r.coef > tn:
			return "coefficient is no TransferParams field"
		case r.max < 0 || r.max > len(k.maxes):
			return "row names a missing max group"
		case !wellFormed([]term{{1, r.ei, r.ej}}):
			return "row exponent is not finite"
		case r.relaxed && (r.comp != tD || r.coef != tn || !r.perByte || r.ei != -1 || r.ej != 0 || r.max != 0):
			return "relaxed row is not L·t_n/p_i"
		}
	}
	if seen != [3]bool{true, true, true} {
		return "a component has no rows"
	}
	return ""
}
