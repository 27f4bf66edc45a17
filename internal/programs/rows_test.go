package programs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paradigm/internal/kernels"
	"paradigm/internal/prog"
)

// cmmElem is CMM's input generator one element at a time, in the
// operations it was first written with.
func cmmElem(n int, phase float64) func(i, j int) float64 {
	return func(i, j int) float64 { return math.Sin(phase + float64(i*n+j)/float64(n*n)*2*math.Pi) }
}

// shifted reads a conceptual operand at a quadrant's anchor.
func shifted(f func(i, j int) float64, r0, c0 int) func(i, j int) float64 {
	return func(i, j int) float64 { return f(r0+i, c0+j) }
}

// TestInitRowSplitInvariant holds every init node of every program to the
// Kernel.Init contract and to its scalar definition: a row filled whole,
// a row filled in random segments and the element-by-element definition
// (AElem, BElem, CMM's formula through math.Sin) agree in every bit, and
// every element is written.
func TestInitRowSplitInvariant(t *testing.T) {
	cal := calibration(t)
	type elems map[string]func(i, j int) float64
	cmm := func(n int) elems {
		return elems{"init_Ar": cmmElem(n, 0), "init_Ai": cmmElem(n, 0.7),
			"init_Br": cmmElem(n, 1.4), "init_Bi": cmmElem(n, 2.1)}
	}
	strassen := func(n int) elems {
		h := n / 2
		return elems{
			"init_A11": AElem, "init_A12": shifted(AElem, 0, h), "init_A21": shifted(AElem, h, 0), "init_A22": shifted(AElem, h, h),
			"init_B11": BElem, "init_B12": shifted(BElem, 0, h), "init_B21": shifted(BElem, h, 0), "init_B22": shifted(BElem, h, h),
		}
	}
	type tcase struct {
		name  string
		build func() (*prog.Program, error)
		elems elems
	}
	var cases []tcase
	for _, n := range []int{1, 33, 127, 512} {
		cases = append(cases,
			tcase{fmt.Sprintf("cmm%d", n), func() (*prog.Program, error) { return ComplexMatMul(n, cal) }, cmm(n)},
			tcase{fmt.Sprintf("cmm%d-grid", n), func() (*prog.Program, error) { return ComplexMatMulLayout(n, cal, true) }, cmm(n)})
	}
	for _, n := range []int{2, 34, 128, 512} {
		cases = append(cases, tcase{fmt.Sprintf("strassen%d", n), func() (*prog.Program, error) { return Strassen(n, cal) }, strassen(n)})
	}
	cases = append(cases,
		tcase{"strassen-rec36-d2", func() (*prog.Program, error) { return StrassenRecursive(36, 2, cal) }, strassen(36)},
		tcase{"pipeline20", func() (*prog.Program, error) { return SyntheticPipeline(20, 2, 1, cal) },
			elems{"source": func(i, j int) float64 { return float64(i+j+1) / float64(2*20*20) }}},
	)
	const unwritten = 0x7ff8_dead_beef_0001 // a NaN no generator produces
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			inits := 0
			for v, spec := range p.Specs {
				k := spec.Kernel
				if k.Op != kernels.OpInit {
					continue
				}
				inits++
				name := p.G.Nodes[v].Name
				elem, ok := c.elems[name]
				if !ok {
					t.Fatalf("no scalar definition for init node %q", name)
				}
				whole, segs := make([]float64, k.N), make([]float64, k.N)
				for i := 0; i < k.M; i++ {
					for j := range whole {
						whole[j] = math.Float64frombits(unwritten)
						segs[j] = math.Float64frombits(unwritten)
					}
					k.Init(i, 0, whole)
					for j0 := 0; j0 < k.N; {
						w := 1 + rng.Intn(min(k.N-j0, 11))
						k.Init(i, j0, segs[j0:j0+w])
						j0 += w
					}
					for j := range whole {
						want := math.Float64bits(elem(i, j))
						if got := math.Float64bits(whole[j]); got != want {
							t.Fatalf("%s (%d,%d) whole row %#x, scalar %#x", name, i, j, got, want)
						}
						if got := math.Float64bits(segs[j]); got != want {
							t.Fatalf("%s (%d,%d) in segments %#x, scalar %#x", name, i, j, got, want)
						}
					}
				}
			}
			if inits == 0 || inits != len(c.elems) {
				t.Fatalf("%d init nodes, %d definitions", inits, len(c.elems))
			}
		})
	}
}
