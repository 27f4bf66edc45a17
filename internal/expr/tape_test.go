package expr

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// outcome is everything one evaluator call hands back, as bits, so that
// two of them are equal only if no output bit differs.
type outcome struct {
	panicked bool
	val      uint64
	grad     []uint64
}

func (o outcome) String() string {
	if o.panicked {
		return "panic"
	}
	return fmt.Sprintf("val %016x grad %016x", o.val, o.grad)
}

func (o outcome) equal(p outcome) bool {
	return o.panicked == p.panicked && o.val == p.val && slices.Equal(o.grad, p.grad)
}

// evaluator is what the tape's Evaluator and the reference interpreter
// have in common.
type evaluator interface {
	Eval(root ID, x []float64, temp float64) float64
	EvalGrad(root ID, x []float64, temp float64, grad []float64) float64
}

// call runs one Eval (grad false) or EvalGrad on ev and captures the
// outcome. The gradient buffer arrives dirty: both evaluators must
// overwrite all of it. A panic (a hard max over NaNs has no argmax) is an
// outcome like any other — the two evaluators must agree on it.
func call(ev evaluator, root ID, x []float64, temp float64, grad bool) (o outcome) {
	defer func() {
		if recover() != nil {
			o = outcome{panicked: true}
		}
	}()
	if !grad {
		return outcome{val: math.Float64bits(ev.Eval(root, x, temp))}
	}
	g := make([]float64, len(x))
	for i := range g {
		g[i] = math.NaN()
	}
	o.val = math.Float64bits(ev.EvalGrad(root, x, temp, g))
	for _, v := range g {
		o.grad = append(o.grad, math.Float64bits(v))
	}
	return o
}

// The call sequences a point is put through: between them they reach the
// forward sweep cold and every way of answering from the forward memo.
var sequences = [][]bool{
	{true},        // EvalGrad, cold
	{false, true}, // Eval, then EvalGrad running the backward sweep only
	{true, false}, // EvalGrad, then Eval answered from the memo
	{true, true},  // EvalGrad twice: grad rewritten from kept values
	{false, false},
}

// diffPoint puts (root, x, temp) through sequence seq on ev and requires
// every call to match the reference interpreter bit for bit.
func diffPoint(t testing.TB, ev *Evaluator, g *Graph, root ID, x []float64, temp float64, seq []bool, what string) {
	t.Helper()
	ref := newRefEvaluator(g)
	for step, grad := range seq {
		want := call(ref, root, x, temp, grad)
		got := call(ev, root, x, temp, grad)
		if !got.equal(want) {
			t.Fatalf("%s: root %d temp %v x %v, call %d of %v (true = EvalGrad):\n tape      %v\n reference %v",
				what, root, temp, x, step, seq, got, want)
		}
	}
}

// TestTapeMatchesReferenceOnRandomDAGs is the differential gate of the
// compiled tape: on random DAGs mixing every node kind, at the hard max,
// at temperatures from barely smoothed to fully blurred, at the last
// root and at interior ones, through a long-lived evaluator (so memo
// state carries from point to point) and a fresh one, no output bit may
// differ from the node-by-node reference interpreter.
func TestTapeMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	const nvars = 4
	for trial := 0; trial < 250; trial++ {
		var g Graph
		last := buildRandomGraph(rng, &g, nvars)
		ev := NewEvaluator(&g)
		for pt := 0; pt < 3; pt++ {
			x := make([]float64, nvars)
			for i := range x {
				x[i] = rng.Float64()*4 - 2
			}
			f := newRefEvaluator(&g).Eval(last, x, 0)
			roots := []ID{last, ID(rng.Intn(g.NumNodes()))}
			for ti, temp := range []float64{0, 1e-6 * f, 0.05 * f, 1} {
				for ri, root := range roots {
					seq := sequences[(trial+pt+ti+ri)%len(sequences)]
					what := fmt.Sprintf("trial %d point %d", trial, pt)
					diffPoint(t, ev, &g, root, x, temp, seq, what+" (long-lived evaluator)")
					diffPoint(t, NewEvaluator(&g), &g, root, x, temp, seq, what+" (fresh evaluator)")
				}
			}
		}
	}
}

// TestTapeMemoPaths walks the forward memo through every way it can be
// hit or must miss, each step checked against the reference.
func TestTapeMemoPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, root := buildPoolTestGraph(rng)
	inner := root - 1 // the Mul below the root SmoothMax
	x := []float64{0.7, 1.3, 0.4}
	ev := NewEvaluator(g)
	both := []bool{false, true}

	diffPoint(t, ev, g, root, x, 0.1, both, "Eval then EvalGrad at the same x")
	diffPoint(t, ev, g, root, x, 0.2, both, "same x, another temperature")
	diffPoint(t, ev, g, root, x, 0, both, "same x, hard max")
	diffPoint(t, ev, g, root, x, 0.2, both, "same x, back to a smoothed max")
	diffPoint(t, ev, g, inner, x, 0.2, both, "same point, an interior root")
	diffPoint(t, ev, g, root, x, 0.2, []bool{true}, "same point, the last root again")

	y := append([]float64(nil), x...)
	y[1] = math.Nextafter(y[1], 2)
	diffPoint(t, ev, g, root, y, 0.2, both, "x differing in one bit")
	z := []float64{0, 1.3, 0.4}
	diffPoint(t, ev, g, root, z, 0.2, both, "x with a +0")
	z[0] = math.Copysign(0, -1)
	diffPoint(t, ev, g, root, z, 0.2, both, "x with that zero negated")

	// The memo holds a copy of x: a caller stepping x in place (as the
	// line search does with its trial vector) must get the new point.
	w := append([]float64(nil), x...)
	diffPoint(t, ev, g, root, w, 0.3, []bool{false}, "before an in-place step")
	w[2] += 0.25
	diffPoint(t, ev, g, root, w, 0.3, []bool{true}, "after an in-place step")

	// Only the variables the graph reads are part of the point.
	long := append(append([]float64(nil), w...), 5, 6)
	diffPoint(t, ev, g, root, long, 0.3, []bool{true}, "same point in a longer slice")
	long[4] = 7
	diffPoint(t, ev, g, root, long, 0.3, []bool{true}, "same point, unread tail changed")

	// A recycled evaluator carries its memo through the pool.
	pool := NewEvaluatorPool(g)
	pe := pool.Get()
	diffPoint(t, pe, g, root, x, 0.1, []bool{false}, "pooled evaluator, Eval")
	pool.Put(pe)
	pe = pool.Get()
	diffPoint(t, pe, g, root, x, 0.1, []bool{true}, "recycled evaluator, EvalGrad at the same x")
	diffPoint(t, pe, g, root, y, 0.1, []bool{true}, "recycled evaluator, a new x")
	pool.Put(pe)
}

// TestTapeKeepsTheSignOfZero pins the one place where sharing could lose
// a bit without losing a digit: −0. A Sum starts from +0, so it turns a
// lone −0 child into +0; a Scale or Mul keeps the sign.
func TestTapeKeepsTheSignOfZero(t *testing.T) {
	var g Graph
	negZero := g.Scale(0, g.Const(-1)) // 0 × −1 = −0
	ids := []ID{
		negZero,
		g.Sum(negZero, negZero),
		g.Mul(negZero, g.Var(0)),
		g.SmoothMax(negZero, g.Const(0)),
		g.Scale(2, g.Sum(negZero, g.Scale(0, g.Const(-3)))),
	}
	ev := NewEvaluator(&g)
	for _, id := range ids {
		for _, temp := range []float64{0, 0.5} {
			diffPoint(t, ev, &g, id, []float64{0.5}, temp, []bool{false, true}, "signed zero")
		}
	}
}

// TestExpAndLogShortcutsAreExact checks, on the platform the tests run
// on, the three identities the forward sweep relies on to skip a
// math.Exp or math.Log call, and then drives a SmoothMax through each.
func TestExpAndLogShortcutsAreExact(t *testing.T) {
	one := math.Float64bits(1)
	if math.Float64bits(math.Exp(0)) != one || math.Float64bits(math.Exp(math.Copysign(0, -1))) != one {
		t.Fatal("math.Exp(±0) is not exactly 1")
	}
	if math.Float64bits(math.Log(1)) != 0 {
		t.Fatal("math.Log(1) is not exactly +0")
	}
	for q := math.Nextafter(expUnderflow, math.Inf(-1)); q > -1e300; q *= 1.0009 {
		if math.Float64bits(math.Exp(q)) != 0 {
			t.Fatalf("math.Exp(%v) = %v, not exactly 0", q, math.Exp(q))
		}
	}
	if math.Exp(math.Inf(-1)) != 0 {
		t.Fatal("math.Exp(-Inf) is not 0")
	}

	// max(c, p0): at x the two children are 1 and e^x, so (v−m)/T sweeps
	// through 0, the underflow bound and everything between as x and T
	// move.
	var g Graph
	root := g.SmoothMax(g.Const(1), g.Var(0), g.Const(1))
	ev := NewEvaluator(&g)
	for _, temp := range []float64{1e-9, 1e-4, 1.0 / 746, 1.0 / 745, 0.01, 1, 1e6} {
		for _, x := range []float64{-50, -1, -1e-9, 0, 1e-9, 1e-3, math.Log(2), 1, 7.5, 700} {
			diffPoint(t, ev, &g, root, []float64{x}, temp, []bool{false, true}, "shortcut sweep")
		}
	}
}

// TestEvalDoesNotAllocate is the steady-state allocation gate: once an
// evaluator has its scratch, neither call allocates — memo hit or miss.
func TestEvalDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var g Graph
	const nvars = 6
	roots := make([]ID, 0, 16)
	for i := 0; i < 16; i++ {
		roots = append(roots, buildRandomGraph(rng, &g, nvars))
	}
	root := g.SmoothMax(roots...)
	ev := NewEvaluator(&g)
	xs := [2][]float64{make([]float64, nvars), make([]float64, nvars)}
	for i := 0; i < nvars; i++ {
		xs[0][i], xs[1][i] = rng.Float64(), rng.Float64()
	}
	grad := make([]float64, nvars)
	ev.EvalGrad(root, xs[0], 0.1, grad)
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		ev.Eval(root, xs[i&1], 0.1)
		ev.EvalGrad(root, xs[i&1], 0.1, grad)
		ev.EvalGrad(root, xs[(i+1)&1], 0.1, grad)
	}); n != 0 {
		t.Fatalf("steady-state Eval/EvalGrad allocate %v times per run, want 0", n)
	}
}

// fuzzTemps are the temperatures FuzzEvalTape picks from: the hard max,
// the anneal's range, and the values where (v−m)/T degenerates.
var fuzzTemps = []float64{
	0, -1, 5e-324, 1e-12, 1e-6, 1e-3, 0.05, 1, 40, 1e300,
	math.Inf(1), math.NaN(),
}

// graphFromBytes decodes a fuzz input into a DAG, a point and a
// temperature. Every byte string decodes to something: operands are taken
// modulo what is in range, and a truncated input just stops early.
func graphFromBytes(data []byte) (g *Graph, root ID, x []float64, temp float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	g = &Graph{}
	nvars := 1 + int(next()%4)
	temp = fuzzTemps[int(next())%len(fuzzTemps)]
	x = make([]float64, nvars)
	for i := range x {
		x[i] = float64(int8(next())) / 16 // [-8, 8)
	}
	ids := make([]ID, 0, 80)
	for v := 0; v < nvars; v++ {
		ids = append(ids, g.Var(v))
	}
	pick := func() ID { return ids[int(next())%len(ids)] }
	several := func() []ID {
		out := make([]ID, 2+int(next()%3))
		for i := range out {
			out[i] = pick()
		}
		return out
	}
	for len(data) > 0 && len(ids) < cap(ids) {
		switch next() % 6 {
		case 0:
			ids = append(ids, g.Const(float64(int8(next()))/8))
		case 1:
			c := float64(next()) / 32
			exps := map[int]float64{}
			for v := 0; v < nvars; v++ {
				exps[v] = float64(int(next()%9)-4) / 2
			}
			ids = append(ids, g.Monomial(c, exps))
		case 2:
			ids = append(ids, g.Sum(several()...))
		case 3:
			ids = append(ids, g.Scale(float64(next())/16, pick()))
		case 4:
			ids = append(ids, g.Mul(pick(), pick()))
		case 5:
			ids = append(ids, g.SmoothMax(several()...))
		}
	}
	return g, ids[len(ids)-1], x, temp
}

// FuzzEvalTape decodes bytes into a DAG, a point and a temperature and
// requires the tape to match the reference interpreter bit for bit —
// overflow to Inf, NaN and panics included — cold, through the memo, and
// again one bit away from the point.
func FuzzEvalTape(f *testing.F) {
	f.Add([]byte{}) // the rest of the seed corpus is in testdata/fuzz/FuzzEvalTape
	f.Fuzz(func(t *testing.T, data []byte) {
		g, root, x, temp := graphFromBytes(data)
		ev := NewEvaluator(g)
		for i, seq := range sequences {
			diffPoint(t, ev, g, root, x, temp, seq, "long-lived evaluator")
			diffPoint(t, NewEvaluator(g), g, root, x, temp, seq, "fresh evaluator")
			x[i%len(x)] = math.Nextafter(x[i%len(x)], 9)
		}
	})
}
