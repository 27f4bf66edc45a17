package convex

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"paradigm/internal/expr"
)

// TestCholeskyMatchesDense factors random sparse positive definite
// matrices — sums of random cliques, the shape the Newton system has — and
// holds the solve and the product to a dense reference, and the ordering
// to refMinDegree.
func TestCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		dense := make([]float64, n*n)
		adj := make([][]int32, n)
		cliqOff, cliqVar := []int32{0}, []int32(nil)
		for range rng.Intn(2 * n) {
			var clique []int32
			for v := range n {
				if rng.Intn(n) < 3 {
					clique = append(clique, int32(v))
				}
			}
			cliqVar = append(cliqVar, clique...)
			cliqOff = append(cliqOff, int32(len(cliqVar)))
			g := make([]float64, len(clique))
			for k := range g {
				g[k] = rng.NormFloat64()
			}
			for a, va := range clique {
				for b, vb := range clique {
					dense[int(va)*n+int(vb)] += g[a] * g[b]
					if a != b {
						adj[va] = append(adj[va], vb)
					}
				}
			}
		}
		for v := range n {
			dense[v*n+v] += 0.1 + rng.Float64()
		}
		wantPerm := refMinDegree(n, adj)
		c := newCholesky(n, cliqOff, cliqVar)
		if !slices.Equal(c.perm, wantPerm) {
			t.Fatalf("trial %d: order %v, minimum degree %v", trial, c.perm, wantPerm)
		}
		var ab []int32
		var entries []float64
		for a := range n {
			for b := 0; b <= a; b++ {
				if dense[a*n+b] != 0 || a == b {
					ab = append(ab, int32(a), int32(b))
					entries = append(entries, dense[a*n+b])
				}
			}
		}
		pos := make([]int32, len(entries))
		c.positions(ab, pos)
		for i, p := range pos {
			c.val[p] = entries[i]
		}
		c.factor()
		want := make([]float64, n)
		for v := range want {
			want[v] = rng.NormFloat64()
		}
		b := make([]float64, n)
		for a := range n {
			for v := range n {
				b[a] += dense[a*n+v] * want[v]
			}
		}
		got := slices.Clone(b)
		c.solve(got)
		for v := range got {
			if !approx(got[v], want[v], 1e-9) {
				t.Fatalf("trial %d (n %d): x[%d] = %v, want %v", trial, n, v, got[v], want[v])
			}
		}
		prod := make([]float64, n)
		c.mul(want, prod)
		for v := range prod {
			if !approx(prod[v], b[v], 1e-12) {
				t.Fatalf("trial %d: (A·x)[%d] = %v, want %v", trial, v, prod[v], b[v])
			}
		}
		// Two right sides at once are each side alone, bit for bit.
		other := make([]float64, n)
		for v := range other {
			other[v] = rng.NormFloat64()
		}
		both, alone := [2][]float64{slices.Clone(b), slices.Clone(other)}, slices.Clone(other)
		c.solve(both[0], both[1])
		c.solve(alone)
		prods := [2][]float64{make([]float64, n), make([]float64, n)}
		c.mul2(want, other, prods[0], prods[1])
		c.mul(other, prod)
		if !slices.Equal(both[0], got) || !slices.Equal(both[1], alone) || !slices.Equal(prods[1], prod) {
			t.Fatalf("trial %d: two-sided solve or product differs from one side's", trial)
		}
		c.mul(want, prod)
		if !slices.Equal(prods[0], prod) {
			t.Fatalf("trial %d: two-sided product differs from one side's", trial)
		}
	}
}

// refMinDegree is minimum-degree ordering at its plainest: adjacency
// sets (adj[v] lists v's neighbours, repeats allowed), the vertex of fewest remaining neighbours eliminated first, ties
// to the lowest, its neighbours joined into a clique.
func refMinDegree(n int, adj [][]int32) []int32 {
	nbr := make([]map[int32]bool, n)
	for v := range nbr {
		nbr[v] = map[int32]bool{}
		for _, w := range adj[v] {
			nbr[v][w] = true
		}
	}
	perm := make([]int32, 0, n)
	done := make([]bool, n)
	for range n {
		best := -1
		for v := range n {
			if !done[v] && (best < 0 || len(nbr[v]) < len(nbr[best])) {
				best = v
			}
		}
		done[best] = true
		perm = append(perm, int32(best))
		for u := range nbr[best] {
			delete(nbr[u], int32(best))
			for w := range nbr[best] {
				if w != u {
					nbr[u][w] = true
				}
			}
		}
		nbr[best] = nil
	}
	return perm
}

// exact evaluates the root's hard max at x.
func exact(g *expr.Graph, root expr.ID, x []float64) float64 {
	return expr.NewEvaluator(g).Eval(root, x, 0)
}

func solveEpigraph(t *testing.T, g *expr.Graph, root expr.ID, lo, hi []float64) Result {
	t.Helper()
	ep, err := g.Epigraph(root)
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, len(lo))
	for i := range x0 {
		x0[i] = 0.5 * (lo[i] + hi[i])
	}
	res, err := MinimizeEpigraph(ep, lo, hi, x0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != GapConverged || !(res.Gap <= gapTol) {
		t.Fatalf("status %v, gap %v", res.Status, res.Gap)
	}
	if v := math.Log(exact(g, root, res.X)); !approx(v, res.F, 1e-12) {
		t.Fatalf("F = %v, log of the root at X = %v", res.F, v)
	}
	return res
}

// TestMinimizeEpigraphMaxOfMonomials: max(2/p, p/2) over p ∈ [1, 64] is
// least at p = 2, where it is 1 — the A_p-versus-C_p tension in miniature,
// solved to the certificate, not to a smoothing temperature.
func TestMinimizeEpigraphMaxOfMonomials(t *testing.T) {
	var g expr.Graph
	root := g.SmoothMax(g.Monomial(2, []int{0}, []float64{-1}), g.Monomial(0.5, []int{0}, []float64{1}))
	res := solveEpigraph(t, &g, root, []float64{0}, []float64{math.Log(64)})
	if !approx(math.Exp(res.X[0]), 2, 1e-6) || !approx(math.Exp(res.F), 1, 1e-9) {
		t.Fatalf("p = %v, Φ = %v; want 2, 1", math.Exp(res.X[0]), math.Exp(res.F))
	}
}

// TestMinimizeEpigraphDenseConstraint solves Σ_i (a_i·p_i + b_i/p_i) over
// 20 variables — one constraint whose support is every variable, the shape
// of A_p, which the solve applies by Sherman–Morrison — against its closed
// form: each term is least at p_i = √(b_i/a_i), where it is 2√(a_i·b_i).
func TestMinimizeEpigraphDenseConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g expr.Graph
	var terms []expr.ID
	want := 0.0
	const n = 20
	lo, hi := make([]float64, n), make([]float64, n)
	for i := range n {
		a, b := 0.5+rng.Float64(), 1+4*rng.Float64()
		terms = append(terms, g.Monomial(a, []int{i}, []float64{1}), g.Monomial(b, []int{i}, []float64{-1}))
		want += 2 * math.Sqrt(a*b)
		lo[i], hi[i] = -math.Log(16), math.Log(16)
	}
	root := g.Sum(terms...)
	ep, err := g.Epigraph(root)
	if err != nil {
		t.Fatal(err)
	}
	if s := newIPM(ep, lo, hi); s.dense < 0 {
		t.Fatal("the sum's constraint is not handled as dense")
	}
	res := solveEpigraph(t, &g, root, lo, hi)
	if got := math.Exp(res.F); got > want*(1+1e-9) || got < want*(1-1e-12) {
		t.Fatalf("Φ = %.15g, want %.15g", got, want)
	}
}

// TestMinimizeEpigraphFixedVariables: a variable with lower == upper is a
// constant of the program, the others are optimised around it.
func TestMinimizeEpigraphFixedVariables(t *testing.T) {
	var g expr.Graph
	// max(x0·x1, 4/x0): with x1 fixed at 1 the optimum is x0 = 2.
	root := g.SmoothMax(g.Monomial(1, []int{0, 1}, []float64{1, 1}), g.Monomial(4, []int{0}, []float64{-1}))
	res := solveEpigraph(t, &g, root, []float64{0, 0}, []float64{math.Log(64), 0})
	if res.X[1] != 0 || !approx(math.Exp(res.X[0]), 2, 1e-6) {
		t.Fatalf("X = %v, want [ln 2, 0]", res.X)
	}
	// Every variable fixed: the program is its epigraph variables alone.
	res = solveEpigraph(t, &g, root, []float64{1, 0}, []float64{1, 0})
	if want := math.Log(max(math.E, 4/math.E)); !approx(res.F, want, 1e-12) {
		t.Fatalf("F = %v, want %v", res.F, want)
	}
}

func TestMinimizeEpigraphErrors(t *testing.T) {
	var g expr.Graph
	root := g.SmoothMax(g.Var(0), g.Monomial(1, []int{0}, []float64{-1}))
	ep, err := g.Epigraph(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinimizeEpigraph(ep, []float64{0, 0}, []float64{1, 1}, []float64{0}, nil); err == nil {
		t.Fatal("want an error for bounds of the wrong length")
	}
	if _, err := MinimizeEpigraph(ep, []float64{1}, []float64{0}, []float64{0}, nil); err == nil {
		t.Fatal("want an error for lower > upper")
	}
	if _, err := MinimizeEpigraph(ep, []float64{math.NaN()}, []float64{1}, []float64{0}, nil); err == nil {
		t.Fatal("want an error for a NaN bound")
	}
	stop := errors.New("stop")
	calls := 0
	_, err = MinimizeEpigraph(ep, []float64{-1}, []float64{1}, []float64{0}, func(r Result) error {
		calls++
		if r.Iters != calls || r.Status != Stepped {
			t.Fatalf("call %d: %+v", calls, r)
		}
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err %v after %d calls, want the hook's error after 1", err, calls)
	}
	var z expr.Graph
	if _, err := z.Epigraph(z.Sum(z.Const(0), z.Scale(0, z.Var(0)))); !errors.Is(err, expr.ErrZeroRoot) {
		t.Fatalf("err %v, want ErrZeroRoot", err)
	}
}

// TestMinimizeEpigraphIsDeterministic: a solve is a pure function of its
// program, bit for bit.
func TestMinimizeEpigraphIsDeterministic(t *testing.T) {
	p := decodeEpigraphProgram([]byte("\x03\x80\x40\x90\x60\x70\x20\x0a\x01\x33\x44\x55\x05\x00\x01\x02\x04\x03\x04\x06\x01\x02\x02\x05\x06\x05\x07\x06\x00"))
	ep, err := p.g.Epigraph(p.root)
	if err != nil {
		t.Fatal(err)
	}
	lower, upper, mid := p.box()
	a, err := MinimizeEpigraph(ep, lower, upper, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MinimizeEpigraph(ep, lower, upper, mid, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.F) != math.Float64bits(b.F) || a.Iters != b.Iters || !slices.Equal(a.X, b.X) {
		t.Fatalf("two solves differ: %+v and %+v", a, b)
	}
}
