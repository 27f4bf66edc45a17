package prog

import (
	"testing"

	"paradigm/internal/costmodel"
	"paradigm/internal/dist"
	"paradigm/internal/kernels"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
)

func lp(alpha, tau float64) costmodel.LoopParams {
	return costmodel.LoopParams{Alpha: alpha, Tau: tau}
}

// buildMulProgram: C = A·B with A init ByRow, B init ByCol, C ByRow.
func buildMulProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("mul")
	initA := kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i + j) })}
	initB := kernels.Kernel{Op: kernels.OpInit, M: 8, N: 8,
		Init: kernels.Elementwise(func(i, j int) float64 { return float64(i - j) })}
	b.AddNode("initA", NodeSpec{Kernel: initA, Output: "A", Axis: dist.ByRow}, lp(0.05, 0.001))
	b.AddNode("initB", NodeSpec{Kernel: initB, Output: "B", Axis: dist.ByCol}, lp(0.05, 0.001))
	b.AddNode("mul", NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpMul, M: 8, N: 8, K: 8},
		Inputs: []string{"A", "B"}, Output: "C", Axis: dist.ByRow,
	}, lp(0.12, 0.01))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderDerivesEdges(t *testing.T) {
	p := buildMulProgram(t)
	// initA -> mul is 1D (ByRow to ByRow); initB -> mul is 2D.
	eA, ok := p.G.EdgeBetween(0, 2)
	if !ok || len(eA.Transfers) != 1 || eA.Transfers[0].Kind != mdg.Transfer1D {
		t.Fatalf("A edge = %+v ok=%v", eA, ok)
	}
	if eA.Transfers[0].Bytes != 8*8*8 {
		t.Fatalf("A bytes = %d", eA.Transfers[0].Bytes)
	}
	eB, ok := p.G.EdgeBetween(1, 2)
	if !ok || eB.Transfers[0].Kind != mdg.Transfer2D {
		t.Fatalf("B edge = %+v", eB)
	}
	// START/STOP added: 3 real + dummies; graph validates.
	if _, _, err := p.G.StartStop(); err != nil {
		t.Fatal(err)
	}
	if len(p.Specs) != p.G.NumNodes() {
		t.Fatalf("specs %d != nodes %d", len(p.Specs), p.G.NumNodes())
	}
}

func TestReferenceRun(t *testing.T) {
	p := buildMulProgram(t)
	vals, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	a, bm, c := vals["A"], vals["B"], vals["C"]
	if a == nil || bm == nil || c == nil {
		t.Fatal("missing arrays")
	}
	want := matrix.New(8, 8)
	if err := matrix.Mul(want, a, bm); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(c, want, 0) {
		t.Fatal("reference multiply wrong")
	}
}

func TestProducerAndConsumers(t *testing.T) {
	p := buildMulProgram(t)
	if id, ok := p.Producer("A"); !ok || id != 0 {
		t.Fatalf("Producer(A) = %v %v", id, ok)
	}
	if _, ok := p.Producer("Z"); ok {
		t.Fatal("Producer(Z) should not exist")
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("undefined input", func(t *testing.T) {
		b := NewBuilder("x")
		b.AddNode("n", NodeSpec{
			Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 2, N: 2},
			Inputs: []string{"A", "B"}, Output: "C",
		}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("duplicate output", func(t *testing.T) {
		b := NewBuilder("x")
		k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 0 })}
		b.AddNode("a", NodeSpec{Kernel: k, Output: "A"}, lp(0, 1))
		b.AddNode("b", NodeSpec{Kernel: k, Output: "A"}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		b := NewBuilder("x")
		k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 0 })}
		b.AddNode("a", NodeSpec{Kernel: k, Output: "A"}, lp(0, 1))
		b.AddNode("b", NodeSpec{Kernel: k, Output: "B"}, lp(0, 1))
		b.AddNode("add", NodeSpec{
			Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 3, N: 3},
			Inputs: []string{"A", "B"}, Output: "C",
		}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("wrong arity", func(t *testing.T) {
		b := NewBuilder("x")
		k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 0 })}
		b.AddNode("a", NodeSpec{Kernel: k, Output: "A"}, lp(0, 1))
		b.AddNode("add", NodeSpec{
			Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 2, N: 2},
			Inputs: []string{"A"}, Output: "C",
		}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("missing output", func(t *testing.T) {
		b := NewBuilder("x")
		k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 0 })}
		b.AddNode("a", NodeSpec{Kernel: k}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("explicit OpNone rejected", func(t *testing.T) {
		b := NewBuilder("x")
		b.AddNode("a", NodeSpec{Kernel: kernels.Kernel{Op: kernels.OpNone}, Output: "A"}, lp(0, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("bad amdahl", func(t *testing.T) {
		b := NewBuilder("x")
		k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 0 })}
		b.AddNode("a", NodeSpec{Kernel: k, Output: "A"}, lp(2, 1))
		if _, err := b.Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("empty program", func(t *testing.T) {
		if _, err := NewBuilder("x").Finish(); err == nil {
			t.Fatal("want error")
		}
	})
	t.Run("first error wins and AddNode after error is inert", func(t *testing.T) {
		b := NewBuilder("x")
		b.AddNode("bad", NodeSpec{Kernel: kernels.Kernel{Op: kernels.OpAdd}}, lp(0, 1))
		id := b.AddNode("later", NodeSpec{Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 1, N: 1}}, lp(0, 1))
		if id != -1 {
			t.Fatal("AddNode after error should return -1")
		}
	})
}

func TestSharedProducerMergesEdges(t *testing.T) {
	// Node consuming the same producer's array twice (A + A): one edge
	// with ONE transfer — the data is moved once, matching codegen.
	b := NewBuilder("x")
	k := kernels.Kernel{Op: kernels.OpInit, M: 2, N: 2, Init: kernels.Elementwise(func(i, j int) float64 { return 1 })}
	b.AddNode("a", NodeSpec{Kernel: k, Output: "A", Axis: dist.ByRow}, lp(0, 1))
	b.AddNode("dbl", NodeSpec{
		Kernel: kernels.Kernel{Op: kernels.OpAdd, M: 2, N: 2},
		Inputs: []string{"A", "A"}, Output: "D", Axis: dist.ByRow,
	}, lp(0, 1))
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.G.EdgeBetween(0, 1)
	if !ok || len(e.Transfers) != 1 {
		t.Fatalf("edge = %+v", e)
	}
	vals, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if vals["D"].At(0, 0) != 2 {
		t.Fatalf("A+A = %v", vals["D"].At(0, 0))
	}
}
