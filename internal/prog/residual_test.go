package prog

import (
	"testing"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/matrix"
)

// chain builds init -> double (A = init, B = A + A).
func chain(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("chain")
	b.AddNode("initA", NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
			Init: kernels.Elementwise(func(i, j int) float64 { return float64(i*8 + j) })},
		Output: "A", Axis: dist.ByRow,
	}, costmodel.LoopParams{Alpha: 0.1, Tau: 0.01})
	b.AddNode("double", NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 8, N: 8},
		Inputs: []string{"A", "A"}, Output: "B", Axis: dist.ByRow,
	}, costmodel.LoopParams{Alpha: 0.1, Tau: 0.01})
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func constLP(string, kernels.Kernel) (costmodel.LoopParams, error) {
	return costmodel.LoopParams{Alpha: 0.05, Tau: 0.001}, nil
}

func TestResidualRestoresAndRecomputes(t *testing.T) {
	p := chain(t)
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Residual(map[string]*matrix.Matrix{"A": ref["A"]}, constLP)
	if err != nil {
		t.Fatal(err)
	}
	// The restore node replaces initA; double re-runs against it.
	prodA, ok := res.Producer("A")
	if !ok {
		t.Fatal("residual lost array A")
	}
	if res.Specs[prodA].Kernel.Op != kernels.OpInit {
		t.Fatalf("A's producer is %v, want restore OpInit", res.Specs[prodA].Kernel.Op)
	}
	got, err := res.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	for name := range p.Arrays {
		if !matrix.Equal(got[name], ref[name], 0) {
			t.Fatalf("residual run diverges on %q", name)
		}
	}
}

func TestResidualNothingRestored(t *testing.T) {
	p := chain(t)
	res, err := p.Residual(nil, constLP)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got["B"], ref["B"], 0) {
		t.Fatal("full re-run diverges")
	}
}

func TestResidualValidation(t *testing.T) {
	p := chain(t)
	if _, err := p.Residual(map[string]*matrix.Matrix{"ghost": matrix.New(8, 8)}, constLP); err == nil {
		t.Fatal("want error for unknown restored array")
	}
	if _, err := p.Residual(map[string]*matrix.Matrix{"A": matrix.New(3, 3)}, constLP); err == nil {
		t.Fatal("want error for wrong-shape restored array")
	}
}
