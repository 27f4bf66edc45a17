package frontend

import (
	"math"
	"strings"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/codegen"
	"paradigm/internal/kernels"
	"paradigm/internal/machine"
	"paradigm/internal/matrix"
	"paradigm/internal/mdg"
	"paradigm/internal/sched"
	"paradigm/internal/sim"
	"paradigm/internal/trainsets"
)

func cal(t testing.TB) *trainsets.Calibration {
	t.Helper()
	c, err := trainsets.Calibrate(machine.CM5(16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

const goodProgram = `
# complex-ish test program
param n = 16

matrix A = init(n, n, ramp)
matrix B = init(n, n, wave)   @ col
matrix C = A * B
matrix D = C + A
matrix E = D - B              @ col
`

func TestLexBasics(t *testing.T) {
	toks, err := lex("matrix A = init(4, 4, ones)\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []tokenKind{tokIdent, tokIdent, tokEquals, tokIdent, tokLParen,
		tokNumber, tokComma, tokNumber, tokComma, tokIdent, tokRParen, tokNewline, tokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(kinds), toks)
	}
	for i, k := range kinds {
		if toks[i].kind != k {
			t.Fatalf("token %d = %v, want %v", i, toks[i].kind, k)
		}
	}
}

func TestLexCommentsAndBlankLines(t *testing.T) {
	toks, err := lex("# comment only\n\n\nparam x = 1\n# trailing")
	if err != nil {
		t.Fatal(err)
	}
	// No leading newline tokens; one statement.
	if toks[0].kind != tokIdent || toks[0].text != "param" {
		t.Fatalf("first token = %+v", toks[0])
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	if _, err := lex("matrix A = $\n"); err == nil {
		t.Fatal("want error for '$'")
	}
}

func TestCompileGoodProgram(t *testing.T) {
	p, err := Compile("good", goodProgram, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	// 5 computation nodes + START/STOP.
	real := 0
	for _, spec := range p.Specs {
		if spec.Kernel.Op != kernels.OpNone {
			real++
		}
	}
	if real != 5 {
		t.Fatalf("computation nodes = %d, want 5", real)
	}
	// B is col-distributed, C row-distributed: the B->C edge must be 2D.
	bID, _ := p.Producer("B")
	cID, _ := p.Producer("C")
	e, ok := p.G.EdgeBetween(bID, cID)
	if !ok || e.Transfers[0].Kind != mdg.Transfer2D {
		t.Fatalf("B->C edge = %+v ok=%v", e, ok)
	}
	// A->C is row->row: 1D.
	aID, _ := p.Producer("A")
	e, ok = p.G.EdgeBetween(aID, cID)
	if !ok || e.Transfers[0].Kind != mdg.Transfer1D {
		t.Fatalf("A->C edge = %+v", e)
	}
}

func TestCompiledProgramRunsAndVerifies(t *testing.T) {
	c := cal(t)
	p, err := Compile("good", goodProgram, c)
	if err != nil {
		t.Fatal(err)
	}
	model := c.Model()
	ar, err := alloc.Solve(p.G, model, 8, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, model, ar.P, 8, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	for name := range p.Arrays {
		got, err := res.Gather(name)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(got, ref[name], 1e-9) {
			t.Fatalf("array %q differs from reference", name)
		}
	}
}

func TestIdentityGenerator(t *testing.T) {
	src := `
matrix A = init(8, 8, wave)
matrix I = init(8, 8, ident)
matrix B = A * I
`
	p, err := Compile("ident", src, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(ref["B"], ref["A"], 1e-12) {
		t.Fatal("A * I != A")
	}
}

func TestRectangularMultiply(t *testing.T) {
	src := `
matrix A = init(4, 8, ramp)
matrix B = init(8, 2, wave)
matrix C = A * B
`
	p, err := Compile("rect", src, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := p.Arrays["C"]
	if arr.Rows != 4 || arr.Cols != 2 {
		t.Fatalf("C is %dx%d, want 4x2", arr.Rows, arr.Cols)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"undefined matrix":    "matrix C = A + B\n",
		"undefined param":     "matrix A = init(n, 4, ones)\n",
		"shape mismatch":      "matrix A = init(2, 2, ones)\nmatrix B = init(3, 3, ones)\nmatrix C = A + B\n",
		"inner dim mismatch":  "matrix A = init(2, 3, ones)\nmatrix B = init(4, 2, ones)\nmatrix C = A * B\n",
		"matrix redefined":    "matrix A = init(2, 2, ones)\nmatrix A = init(2, 2, ones)\n",
		"param redefined":     "param n = 4\nparam n = 8\n",
		"param shadows":       "param n = 4\nmatrix n = init(2, 2, ones)\n",
		"matrix shadows":      "matrix n = init(2, 2, ones)\nparam n = 4\n",
		"reserved word":       "matrix init = init(2, 2, ones)\n",
		"bad generator":       "matrix A = init(2, 2, zeros)\n",
		"bad axis":            "matrix A = init(2, 2, ones) @ diagonal\n",
		"zero size":           "matrix A = init(0, 2, ones)\n",
		"zero param":          "param n = 0\n",
		"missing operator":    "matrix A = init(2, 2, ones)\nmatrix B = A A\n",
		"statement keyword":   "banana A = init(2, 2, ones)\n",
		"empty program":       "# nothing here\n",
		"keyword as size":     "matrix A = init(row, 2, ones)\n",
		"garbage after stmt":  "param n = 4 extra\n",
		"init missing parens": "matrix A = init 2, 2, ones\n",
	}
	c := cal(t)
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Compile(name, src, c); err == nil {
				t.Fatalf("program compiled but should not:\n%s", src)
			}
		})
	}
}

func TestErrorMessagesCarryLineNumbers(t *testing.T) {
	src := "param n = 4\nmatrix A = init(n, n, ones)\nmatrix B = A + C\n"
	_, err := Compile("lines", src, cal(t))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line 3 reference", err)
	}
}

func TestSubSharesAddCalibration(t *testing.T) {
	// Subtraction must reuse the addition cost fit (same loop shape).
	c := cal(t)
	src := "matrix A = init(8, 8, ones)\nmatrix B = init(8, 8, wave)\nmatrix C = A - B\n"
	p, err := Compile("sub", src, c)
	if err != nil {
		t.Fatal(err)
	}
	var subNode mdg.NodeID = -1
	for i, spec := range p.Specs {
		if spec.Kernel.Op == kernels.OpSub {
			subNode = mdg.NodeID(i)
		}
	}
	if subNode < 0 {
		t.Fatal("no sub node")
	}
	if p.G.Nodes[subNode].Tau <= 0 {
		t.Fatal("sub node has no calibrated cost")
	}
}

func BenchmarkCompile(b *testing.B) {
	c := cal(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile("bench", goodProgram, c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestBinaryInheritsLeftOperandAxis(t *testing.T) {
	src := `
matrix A = init(8, 8, ones) @ col
matrix B = init(8, 8, wave)
matrix C = A + B
`
	p, err := Compile("inherit", src, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := p.Producer("A")
	cID, _ := p.Producer("C")
	// C inherits A's col axis: the A->C transfer is 1D, B->C is 2D.
	eA, _ := p.G.EdgeBetween(aID, cID)
	if eA.Transfers[0].Kind != mdg.Transfer1D {
		t.Fatalf("A->C kind = %v, want 1D (axis inherited)", eA.Transfers[0].Kind)
	}
	bID, _ := p.Producer("B")
	eB, _ := p.G.EdgeBetween(bID, cID)
	if eB.Transfers[0].Kind != mdg.Transfer2D {
		t.Fatalf("B->C kind = %v, want 2D", eB.Transfers[0].Kind)
	}
}

func TestGridAxisAnnotation(t *testing.T) {
	src := `
matrix A = init(16, 16, ramp)
matrix B = init(16, 16, wave)
matrix C = A * B @ grid
matrix D = C + A @ row
`
	p, err := Compile("grid", src, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := p.Producer("A")
	cID, _ := p.Producer("C")
	e, _ := p.G.EdgeBetween(aID, cID)
	if e.Transfers[0].Kind != mdg.TransferL2G {
		t.Fatalf("A->C kind = %v, want L2G", e.Transfers[0].Kind)
	}
	dID, _ := p.Producer("D")
	e, _ = p.G.EdgeBetween(cID, dID)
	if e.Transfers[0].Kind != mdg.TransferG2L {
		t.Fatalf("C->D kind = %v, want G2L", e.Transfers[0].Kind)
	}
	if _, err := p.ReferenceRun(); err != nil {
		t.Fatal(err)
	}
}

func TestExpressionStatements(t *testing.T) {
	src := `
param n = 12
matrix A = init(n, n, ramp)
matrix B = init(n, n, wave)
matrix C = init(n, n, ones)
matrix D = (A + B) * C - A * B
`
	c := cal(t)
	p, err := Compile("expr", src, c)
	if err != nil {
		t.Fatal(err)
	}
	// Temporaries: (A+B), (A+B)*C, A*B, then the final sub = 4 new nodes.
	real := 0
	for _, spec := range p.Specs {
		if spec.Kernel.Op != kernels.OpNone {
			real++
		}
	}
	if real != 3+4 {
		t.Fatalf("computation nodes = %d, want 7", real)
	}
	ref, err := p.ReferenceRun()
	if err != nil {
		t.Fatal(err)
	}
	// Independent oracle: compute (A+B)*C - A*B directly.
	a, b2, c2 := ref["A"], ref["B"], ref["C"]
	n := a.Rows
	ab := matrix.New(n, n)
	if err := matrix.Add(ab, a, b2); err != nil {
		t.Fatal(err)
	}
	abc := matrix.New(n, n)
	if err := matrix.Mul(abc, ab, c2); err != nil {
		t.Fatal(err)
	}
	axb := matrix.New(n, n)
	if err := matrix.Mul(axb, a, b2); err != nil {
		t.Fatal(err)
	}
	want := matrix.New(n, n)
	if err := matrix.Sub(want, abc, axb); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(ref["D"], want, 1e-9) {
		t.Fatal("expression result wrong")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	// A + B * C must parse as A + (B*C): result shape check suffices for
	// rectangular operands where the other association is ill-shaped.
	src := `
matrix A = init(4, 6, ramp)
matrix B = init(4, 8, wave)
matrix C = init(8, 6, ones)
matrix D = A + B * C
`
	p, err := Compile("prec", src, cal(t))
	if err != nil {
		t.Fatal(err)
	}
	arr := p.Arrays["D"]
	if arr.Rows != 4 || arr.Cols != 6 {
		t.Fatalf("D is %dx%d", arr.Rows, arr.Cols)
	}
	// (A + B) would be a shape error, so success proves precedence.
}

func TestExpressionSimulatedEndToEnd(t *testing.T) {
	src := `
param n = 16
matrix A = init(n, n, ramp)
matrix B = init(n, n, wave)
matrix D = (A - B) * (A + B) @ col
`
	c := cal(t)
	p, err := Compile("expr-sim", src, c)
	if err != nil {
		t.Fatal(err)
	}
	model := c.Model()
	ar, err := alloc.Solve(p.G, model, 8, alloc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Run(p.G, model, ar.P, 8, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streams, err := codegen.Generate(p, s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(p, streams, machine.CM5(8))
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := p.ReferenceRun()
	got, err := res.Gather("D")
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(got, ref["D"], 1e-9) {
		t.Fatal("simulated expression program wrong")
	}
}

func TestExpressionErrors(t *testing.T) {
	c := cal(t)
	cases := map[string]string{
		"alias":            "matrix A = init(2, 2, ones)\nmatrix B = A\n",
		"unbalanced paren": "matrix A = init(2, 2, ones)\nmatrix B = (A + A\n",
		"dangling op":      "matrix A = init(2, 2, ones)\nmatrix B = A +\n",
		"inner shape":      "matrix A = init(2, 2, ones)\nmatrix B = init(3, 3, ones)\nmatrix C = (A + B) * A\n",
		"keyword factor":   "matrix A = init(2, 2, ones)\nmatrix B = A + row\n",
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Compile(name, src, c); err == nil {
				t.Fatalf("compiled but should not:\n%s", src)
			}
		})
	}
}

// TestGeneratorRowSplitInvariant holds each built-in generator to the
// kernels.Kernel.Init contract: a row filled whole and a row filled in
// segments of every width equal the element formula bit for bit (wave's
// through math.Sin).
func TestGeneratorRowSplitInvariant(t *testing.T) {
	const rows, cols, phase = 9, 37, 2
	elems := map[genKind]func(i, j int) float64{
		genRamp: func(i, j int) float64 { return float64(i+2*j+phase) / 64 },
		genWave: func(i, j int) float64 { return math.Sin(float64(3*i-j) / 11.0 * float64(phase+1)) },
		genOnes: func(i, j int) float64 { return 1 },
		genIdent: func(i, j int) float64 {
			if i == j {
				return 1
			}
			return 0
		},
	}
	for g, elem := range elems {
		gen := g.generator(phase)
		for w := 1; w <= cols; w++ {
			for i := 0; i < rows; i++ {
				row := make([]float64, cols)
				for j0 := 0; j0 < cols; j0 += w {
					gen(i, j0, row[j0:min(j0+w, cols)])
				}
				for j, v := range row {
					if math.Float64bits(v) != math.Float64bits(elem(i, j)) {
						t.Fatalf("generator %d in segments of %d: (%d,%d) = %v, want %v", g, w, i, j, v, elem(i, j))
					}
				}
			}
		}
	}
}
