package alloc

import (
	"testing"

	"paradigm/internal/expr"
	"paradigm/internal/machine"
	"paradigm/internal/programs"
	"paradigm/internal/trainsets"
)

// BenchmarkEvalGradStrassenPhi times the smoothed solver's unit of work
// (ADMM's local solves anneal) on the paper's headline program: one
// value-and-gradient evaluation of the compiled Φ of Strassen-128 at p=64
// on the trained CM-5, at a warm (so exponential-heavy) temperature. Successive
// calls alternate between two start points, because a repeat at the same
// point would be answered from the evaluator's forward memo. exp/op is
// the math.Exp calls one such evaluation makes, from the graph's shape.
func BenchmarkEvalGradStrassenPhi(b *testing.B) {
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		b.Fatal(err)
	}
	p, err := programs.Strassen(128, cal)
	if err != nil {
		b.Fatal(err)
	}
	prob, err := compile(p.G, cal.Model(), 64, Options{}, true)
	if err != nil {
		b.Fatal(err)
	}
	pool := expr.NewEvaluatorPool(prob.eg)
	ev := pool.Get()
	defer pool.Put(ev)
	// The midpoint and a point off it.
	xs := [2][]float64{prob.midpoint(), prob.midpoint()}
	for i := range xs[1] {
		xs[1][i] *= 0.7
	}
	temp := 0.05 * ev.Eval(prob.phi, xs[0], 0)
	grad := make([]float64, len(xs[0]))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPhi = ev.EvalGrad(prob.phi, xs[i&1], temp, grad)
	}
	b.ReportMetric(float64(pool.Shape().ExpsPerEvalGrad()), "exp/op")
}

var sinkPhi float64
