package costmodel

import (
	"math"
	"testing"
	"testing/quick"

	"paradigm/internal/expr"
	"paradigm/internal/mdg"
)

func approx(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

var paperTransfer = TransferParams{
	Tss: 777.56e-6,
	Tps: 486.98e-9,
	Tsr: 465.58e-6,
	Tpr: 426.25e-9,
	Tn:  0,
}

func TestProcessingAmdahlEndpoints(t *testing.T) {
	lp := LoopParams{Alpha: 0.121, Tau: 0.29847}
	if got := lp.Processing(1); !approx(got, lp.Tau, 1e-12) {
		t.Fatalf("t^C(1) = %v, want τ = %v", got, lp.Tau)
	}
	// As p -> ∞ the cost approaches α·τ.
	if got := lp.Processing(1e9); !approx(got, lp.Alpha*lp.Tau, 1e-6) {
		t.Fatalf("t^C(inf) = %v, want ατ = %v", got, lp.Alpha*lp.Tau)
	}
	// Monotone decreasing in p.
	prev := math.Inf(1)
	for p := 1.0; p <= 64; p *= 2 {
		v := lp.Processing(p)
		if v >= prev {
			t.Fatalf("t^C not decreasing at p=%v: %v >= %v", p, v, prev)
		}
		prev = v
	}
}

func TestProcessingPanicsBelowOne(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LoopParams{Tau: 1}.Processing(0.5)
}

func TestTransfer1DSymmetricGroups(t *testing.T) {
	// Equal group sizes: max(pi,pj)/pi = 1; exactly one message per
	// processor pair in the model's terms.
	c := paperTransfer.Transfer(mdg.Transfer1D, 32768, 8, 8)
	wantSend := paperTransfer.Tss + 32768.0/8*paperTransfer.Tps
	wantRecv := paperTransfer.Tsr + 32768.0/8*paperTransfer.Tpr
	if !approx(c.Send, wantSend, 1e-12) || !approx(c.Recv, wantRecv, 1e-12) {
		t.Fatalf("1D cost = %+v, want send %v recv %v", c, wantSend, wantRecv)
	}
	if c.Net != 0 {
		t.Fatalf("CM-5 t_n = 0 must give zero net cost, got %v", c.Net)
	}
}

func TestTransfer1DAsymmetricGroups(t *testing.T) {
	// pi=2 sending to pj=8: each sender serves 4 receivers' worth of
	// startups: max/pi = 4.
	c := paperTransfer.Transfer(mdg.Transfer1D, 1024, 2, 8)
	if !approx(c.Send, 4*paperTransfer.Tss+512*paperTransfer.Tps, 1e-12) {
		t.Fatalf("send = %v", c.Send)
	}
	if !approx(c.Recv, paperTransfer.Tsr+128*paperTransfer.Tpr, 1e-12) {
		t.Fatalf("recv = %v", c.Recv)
	}
}

func TestTransfer2DAllToAll(t *testing.T) {
	// 2D: every sender talks to every receiver: pj startups at senders.
	c := paperTransfer.Transfer(mdg.Transfer2D, 32768, 4, 8)
	if !approx(c.Send, 8*paperTransfer.Tss+32768.0/4*paperTransfer.Tps, 1e-12) {
		t.Fatalf("2D send = %v", c.Send)
	}
	if !approx(c.Recv, 4*paperTransfer.Tsr+32768.0/8*paperTransfer.Tpr, 1e-12) {
		t.Fatalf("2D recv = %v", c.Recv)
	}
}

func TestTransfer2DCostsExceed1DForLargeGroups(t *testing.T) {
	// The 2D redistribution pays O(p) startups; 1D pays O(1) for equal
	// groups — the reason the paper distinguishes the regimes.
	for _, p := range []float64{4, 8, 16, 32} {
		c1 := paperTransfer.Transfer(mdg.Transfer1D, 32768, p, p)
		c2 := paperTransfer.Transfer(mdg.Transfer2D, 32768, p, p)
		if c2.Send <= c1.Send || c2.Recv <= c1.Recv {
			t.Fatalf("at p=%v: 2D (%v,%v) should exceed 1D (%v,%v)",
				p, c2.Send, c2.Recv, c1.Send, c1.Recv)
		}
	}
}

func TestTransferPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"pi<1":      func() { paperTransfer.Transfer(mdg.Transfer1D, 1, 0.5, 1) },
		"negL":      func() { paperTransfer.Transfer(mdg.Transfer1D, -1, 1, 1) },
		"badKind":   func() { paperTransfer.Transfer(mdg.TransferKind(9), 1, 1, 1) },
		"exprBadKd": func() { var eg expr.Graph; TransferExprs(&eg, paperTransfer, mdg.TransferKind(9), 1, 0, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// chainGraph builds a 3-node chain with one 1D transfer per edge.
func chainGraph() *mdg.Graph {
	var g mdg.Graph
	a := g.AddNode(mdg.Node{Name: "a", Alpha: 0.067, Tau: 3.73e-3})
	b := g.AddNode(mdg.Node{Name: "b", Alpha: 0.121, Tau: 0.29847})
	c := g.AddNode(mdg.Node{Name: "c", Alpha: 0.067, Tau: 3.73e-3})
	g.AddEdge(a, b, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer1D})
	g.AddEdge(b, c, mdg.Transfer{Bytes: 32768, Kind: mdg.Transfer2D})
	return &g
}

func TestNodeWeightComposition(t *testing.T) {
	g := chainGraph()
	m := Model{Transfer: paperTransfer}
	p := []float64{4, 8, 2}
	// Node b: recv from a at (4->8), processing at 8, send to c at (8->2).
	eAB, _ := g.EdgeBetween(0, 1)
	eBC, _ := g.EdgeBetween(1, 2)
	want := paperTransfer.EdgeTransfer(eAB, 4, 8).Recv +
		LoopParams{Alpha: 0.121, Tau: 0.29847}.Processing(8) +
		paperTransfer.EdgeTransfer(eBC, 8, 2).Send
	if got := m.NodeWeight(g, 1, p); !approx(got, want, 1e-12) {
		t.Fatalf("NodeWeight = %v, want %v", got, want)
	}
}

func TestPhiIsMaxOfApCp(t *testing.T) {
	g := chainGraph()
	m := Model{Transfer: paperTransfer}
	p := []float64{2, 4, 2}
	phi, ap, cp, err := m.Phi(g, p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if phi != math.Max(ap, cp) {
		t.Fatalf("phi = %v, max(ap,cp) = %v", phi, math.Max(ap, cp))
	}
	// A chain has no functional parallelism: critical path includes every
	// node weight, so C_p >= any single node weight.
	if cp < m.NodeWeight(g, 1, p) {
		t.Fatalf("cp = %v < node weight", cp)
	}
}

// TestExprMatchesFloat: the expression-DAG forms evaluate to the same
// values as the float forms at hard max (temperature 0), for every
// transfer kind, and with sender and receiver on one variable (vi == vj,
// pi == pj) as well — where a monomial names the variable twice and must
// multiply its powers. The network term is checked on a machine with
// t_n > 0: exact for 2D, and for the kinds whose expression charges the
// sender's denominator an upper bound, exact at pi == pj.
func TestExprMatchesFloat(t *testing.T) {
	tp := paperTransfer
	tp.Tn = 1.2e-7
	kinds := []mdg.TransferKind{mdg.Transfer1D, mdg.Transfer2D, mdg.TransferG2L, mdg.TransferL2G, mdg.TransferG2G}
	f := func(piRaw, pjRaw, kindRaw uint8, same bool, lRaw uint16) bool {
		pi := 1 + float64(piRaw)/4
		pj := 1 + float64(pjRaw)/4
		vj := 1
		if same {
			pj, vj = pi, 0
		}
		bytes := int(lRaw) + 1
		kind := kinds[int(kindRaw)%len(kinds)]
		var eg expr.Graph
		s, n, r := TransferExprs(&eg, tp, kind, bytes, 0, vj)
		ev := expr.NewEvaluator(&eg)
		x := []float64{math.Log(pi), math.Log(pj)}
		c := tp.Transfer(kind, bytes, pi, pj)
		net := ev.Eval(n, x, 0)
		ok := approx(ev.Eval(s, x, 0), c.Send, 1e-9) && approx(ev.Eval(r, x, 0), c.Recv, 1e-9)
		if kind == mdg.Transfer2D || same {
			ok = ok && approx(net, c.Net, 1e-9)
		} else {
			ok = ok && net >= c.Net*(1-1e-12)
		}
		if !ok {
			t.Logf("%v, %d B, pi %v pj %v (same variable %v): send %v/%v net %v/%v recv %v/%v", kind, bytes, pi, pj, same,
				ev.Eval(s, x, 0), c.Send, net, c.Net, ev.Eval(r, x, 0), c.Recv)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestProcessingExprMatchesFloat(t *testing.T) {
	f := func(aRaw, pRaw uint8, tRaw uint16) bool {
		lp := LoopParams{Alpha: float64(aRaw) / 255, Tau: float64(tRaw) / 100}
		p := 1 + float64(pRaw)/4
		var eg expr.Graph
		id := ProcessingExpr(&eg, lp, 0)
		return approx(expr.NewEvaluator(&eg).Eval(id, []float64{math.Log(p)}, 0), lp.Processing(p), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeTransferSumsArrays: an edge carrying two arrays costs the sum of
// the individual transfers.
func TestEdgeTransferSumsArrays(t *testing.T) {
	e := mdg.Edge{Transfers: []mdg.Transfer{
		{Bytes: 1000, Kind: mdg.Transfer1D},
		{Bytes: 2000, Kind: mdg.Transfer2D},
	}}
	got := paperTransfer.EdgeTransfer(e, 4, 8)
	c1 := paperTransfer.Transfer(mdg.Transfer1D, 1000, 4, 8)
	c2 := paperTransfer.Transfer(mdg.Transfer2D, 2000, 4, 8)
	if !approx(got.Send, c1.Send+c2.Send, 1e-12) ||
		!approx(got.Recv, c1.Recv+c2.Recv, 1e-12) ||
		!approx(got.Net, c1.Net+c2.Net, 1e-12) {
		t.Fatalf("EdgeTransfer = %+v, want sum of %+v and %+v", got, c1, c2)
	}
}

func TestEdgeTransferExprsEmptyEdge(t *testing.T) {
	var eg expr.Graph
	s, n, r := EdgeTransferExprs(&eg, paperTransfer, mdg.Edge{}, 0, 1)
	ev := expr.NewEvaluator(&eg)
	x := []float64{0, 0}
	if ev.Eval(s, x, 0) != 0 || ev.Eval(n, x, 0) != 0 || ev.Eval(r, x, 0) != 0 {
		t.Fatal("transfer-free edge must cost zero")
	}
}

func BenchmarkNodeWeightChain(b *testing.B) {
	g := chainGraph()
	m := Model{Transfer: paperTransfer}
	p := []float64{4, 8, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.NodeWeight(g, 1, p)
	}
}

// TestGridG2GMatches1DForm: grid-to-grid redistribution costs exactly the
// 1D formula (row and column overlap factors multiply back together).
func TestGridG2GMatches1DForm(t *testing.T) {
	for _, pq := range [][2]float64{{4, 16}, {16, 4}, {8, 8}, {1, 64}} {
		g := paperTransfer.Transfer(mdg.TransferG2G, 32768, pq[0], pq[1])
		d := paperTransfer.Transfer(mdg.Transfer1D, 32768, pq[0], pq[1])
		if !approx(g.Send, d.Send, 1e-12) || !approx(g.Recv, d.Recv, 1e-12) {
			t.Fatalf("G2G at %v != 1D: %+v vs %+v", pq, g, d)
		}
	}
}
