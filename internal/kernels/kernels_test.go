package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paradigm/internal/machine"
	"paradigm/internal/matrix"
)

var cm5 = machine.CM5(64)

func TestValidate(t *testing.T) {
	good := []Kernel{
		{Op: OpNone},
		{Op: OpInit, M: 4, N: 4, Init: Elementwise(func(i, j int) float64 { return 1 })},
		{Op: OpAdd, M: 4, N: 4},
		{Op: OpSub, M: 2, N: 8},
		{Op: OpMul, M: 4, N: 4, K: 4},
	}
	for _, k := range good {
		if err := k.Validate(); err != nil {
			t.Fatalf("%s: %v", k.Op, err)
		}
	}
	bad := []Kernel{
		{Op: OpInit, M: 4, N: 4}, // missing generator
		{Op: OpInit, M: 0, N: 4, Init: Elementwise(func(i, j int) float64 { return 0 })},
		{Op: OpAdd, M: -1, N: 4},
		{Op: OpMul, M: 4, N: 4, K: 0},
		{Op: Op(42)},
	}
	for _, k := range bad {
		if err := k.Validate(); err == nil {
			t.Fatalf("%v should fail validation", k)
		}
	}
}

func TestExecuteInit(t *testing.T) {
	k := Kernel{Op: OpInit, M: 3, N: 2, Init: Elementwise(func(i, j int) float64 { return float64(10*i + j) })}
	dst := matrix.New(3, 2)
	if err := k.Execute(dst); err != nil {
		t.Fatal(err)
	}
	if dst.At(2, 1) != 21 {
		t.Fatalf("init = %v", dst.At(2, 1))
	}
	if err := k.Execute(matrix.New(2, 2)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestExecuteAddSubMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := matrix.New(4, 4)
	b := matrix.New(4, 4)
	a.Fill(func(i, j int) float64 { return rng.NormFloat64() })
	b.Fill(func(i, j int) float64 { return rng.NormFloat64() })
	dst := matrix.New(4, 4)
	if err := (Kernel{Op: OpAdd, M: 4, N: 4}).Execute(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.At(1, 1) != a.At(1, 1)+b.At(1, 1) {
		t.Fatal("add wrong")
	}
	if err := (Kernel{Op: OpSub, M: 4, N: 4}).Execute(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.At(2, 3) != a.At(2, 3)-b.At(2, 3) {
		t.Fatal("sub wrong")
	}
	if err := (Kernel{Op: OpMul, M: 4, N: 4, K: 4}).Execute(dst, a, b); err != nil {
		t.Fatal(err)
	}
	ref := matrix.New(4, 4)
	if err := matrix.Mul(ref, a, b); err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal(dst, ref, 0) {
		t.Fatal("mul wrong")
	}
	if err := (Kernel{Op: OpAdd, M: 4, N: 4}).Execute(dst, a); err == nil {
		t.Fatal("want arity error")
	}
	if err := (Kernel{Op: OpMul, M: 4, N: 4, K: 4}).Execute(dst, a); err == nil {
		t.Fatal("want arity error")
	}
	if err := (Kernel{Op: OpNone}).Execute(nil); err != nil {
		t.Fatal("OpNone must be a no-op")
	}
}

func TestSerialTimeMagnitudes(t *testing.T) {
	// The CM5 profile should put a 64x64 multiply near the paper's
	// τ ≈ 298 ms and a 64x64 add near τ ≈ 3.7 ms.
	mul := Kernel{Op: OpMul, M: 64, N: 64, K: 64}
	add := Kernel{Op: OpAdd, M: 64, N: 64}
	tm := mul.SerialTime(cm5)
	ta := add.SerialTime(cm5)
	if tm < 0.2 || tm > 0.4 {
		t.Fatalf("serial multiply = %v s, want ~0.3", tm)
	}
	if ta < 2e-3 || ta > 6e-3 {
		t.Fatalf("serial add = %v s, want ~3.7e-3", ta)
	}
}

func TestMaxProcTimeDecreasesThenFlattens(t *testing.T) {
	mul := Kernel{Op: OpMul, M: 64, N: 64, K: 64}
	prev := math.Inf(1)
	for q := 1; q <= 32; q *= 2 {
		v := mul.MaxProcTime(cm5, q)
		if v >= prev {
			t.Fatalf("multiply time not decreasing at q=%d: %v >= %v", q, v, prev)
		}
		prev = v
	}
	// At q=64 a 64×64 multiply may saturate (collectives overtake the
	// one-row-per-processor compute) — the efficiency decay of Figure 1 —
	// but it must not regress badly.
	if v := mul.MaxProcTime(cm5, 64); v > 1.2*prev {
		t.Fatalf("multiply time at q=64 regressed badly: %v vs %v at q=32", v, prev)
	}
	// Scaling must be sublinear (Amdahl-like): 32-way speedup < 32.
	sp := mul.SerialTime(cm5) / mul.MaxProcTime(cm5, 32)
	if sp >= 32 || sp < 4 {
		t.Fatalf("32-way multiply speedup = %v, want sublinear but real", sp)
	}
}

func TestAddScalesBetterThanMul(t *testing.T) {
	// Add has no collectives: its parallel efficiency at 16 procs should
	// exceed the multiply's at the same matrix size... in fitted-α terms
	// the paper found α_add < α_mul. Compare efficiency directly.
	add := Kernel{Op: OpAdd, M: 64, N: 64}
	mul := Kernel{Op: OpMul, M: 64, N: 64, K: 64}
	const q = 16
	effAdd := add.SerialTime(cm5) / (float64(q) * add.MaxProcTime(cm5, q))
	effMul := mul.SerialTime(cm5) / (float64(q) * mul.MaxProcTime(cm5, q))
	if effAdd <= effMul {
		t.Fatalf("eff(add)=%v should exceed eff(mul)=%v", effAdd, effMul)
	}
}

func TestProcTimeImbalance(t *testing.T) {
	// 10 rows over 4 procs: slots own 3,3,3,1 rows; slot 3 is faster.
	k := Kernel{Op: OpAdd, M: 10, N: 10}
	t3 := k.ProcTime(cm5, 4, k.rowsOf(4, 3))
	t0 := k.ProcTime(cm5, 4, k.rowsOf(4, 0))
	if t3 >= t0 {
		t.Fatalf("short block should be faster: %v vs %v", t3, t0)
	}
	if k.rowsOf(4, 0) != 3 || k.rowsOf(4, 3) != 1 {
		t.Fatalf("rowsOf = %d, %d", k.rowsOf(4, 0), k.rowsOf(4, 3))
	}
}

func TestProcTimePanics(t *testing.T) {
	k := Kernel{Op: OpAdd, M: 4, N: 4}
	for name, fn := range map[string]func(){
		"q<1":        func() { k.ProcTime(cm5, 0, 1) },
		"neg extent": func() { k.ProcTime(cm5, 1, -1) },
		"unknown op": func() { Kernel{Op: Op(9), M: 1, N: 1}.ProcTime(cm5, 1, 1) },
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

func TestShapes(t *testing.T) {
	mul := Kernel{Op: OpMul, M: 2, N: 3, K: 4}
	if r, c := mul.OutputShape(); r != 2 || c != 3 {
		t.Fatalf("output %dx%d", r, c)
	}
	if r, c := mul.InputShape(0); r != 2 || c != 4 {
		t.Fatalf("A %dx%d", r, c)
	}
	if r, c := mul.InputShape(1); r != 4 || c != 3 {
		t.Fatalf("B %dx%d", r, c)
	}
	add := Kernel{Op: OpAdd, M: 5, N: 6}
	if r, c := add.InputShape(1); r != 5 || c != 6 {
		t.Fatalf("add input %dx%d", r, c)
	}
	if n := mul.NumInputs(); n != 2 {
		t.Fatalf("NumInputs = %d", n)
	}
	if n := (Kernel{Op: OpInit}).NumInputs(); n != 0 {
		t.Fatalf("init NumInputs = %d", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad input index")
		}
	}()
	mul.InputShape(2)
}

// TestWorkConservation: summing element-work across all group members
// equals the serial element count (the ceil-blocks partition the rows).
func TestWorkConservation(t *testing.T) {
	f := func(mRaw, qRaw uint8) bool {
		m := 1 + int(mRaw)%100
		q := 1 + int(qRaw)%16
		k := Kernel{Op: OpAdd, M: m, N: 7}
		total := 0
		for s := 0; s < q; s++ {
			total += k.rowsOf(q, s)
		}
		return total == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestMaxProcTimeMonotoneInSize: larger matrices never run faster.
func TestMaxProcTimeMonotoneInSize(t *testing.T) {
	f := func(mRaw, qRaw uint8) bool {
		m := 1 + int(mRaw)%60
		q := 1 + int(qRaw)%16
		small := Kernel{Op: OpMul, M: m, N: 16, K: 16}
		big := Kernel{Op: OpMul, M: m + 8, N: 16, K: 16}
		return big.MaxProcTime(cm5, q) >= small.MaxProcTime(cm5, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExecuteMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := matrix.New(64, 64)
	c := matrix.New(64, 64)
	a.Fill(func(i, j int) float64 { return rng.NormFloat64() })
	c.Fill(func(i, j int) float64 { return rng.NormFloat64() })
	dst := matrix.New(64, 64)
	k := Kernel{Op: OpMul, M: 64, N: 64, K: 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Execute(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestGridMulScalesBetterThan1D(t *testing.T) {
	// The extension's point: at large q the SUMMA-style grid multiply
	// keeps scaling where the 1D all-gather multiply saturates.
	lin := Kernel{Op: OpMul, M: 64, N: 64, K: 64}
	grid := Kernel{Op: OpMul, M: 64, N: 64, K: 64, Grid: true}
	t64Lin := lin.MaxProcTime(cm5, 64)
	t64Grid := grid.MaxProcTime(cm5, 64)
	if t64Grid >= t64Lin {
		t.Fatalf("grid multiply at q=64 (%v) should beat 1D (%v)", t64Grid, t64Lin)
	}
	// At q=1 both layouts are the same serial loop.
	if math.Abs(lin.MaxProcTime(cm5, 1)-grid.MaxProcTime(cm5, 1)) > 1e-12 {
		t.Fatal("serial times must agree across layouts")
	}
}

func TestGridProcTimeShapes(t *testing.T) {
	k := Kernel{Op: OpMul, M: 10, N: 10, K: 10, Grid: true}
	// 10x10 over a 2x2 grid: blocks 5x5.
	v := k.GridProcTime(cm5, 2, 2, 5, 5)
	if v <= 0 {
		t.Fatalf("GridProcTime = %v", v)
	}
	if z := (Kernel{Op: OpNone, Grid: true}).GridProcTime(cm5, 2, 2, 0, 0); z != 0 {
		t.Fatalf("OpNone grid time = %v", z)
	}
	add := Kernel{Op: OpAdd, M: 8, N: 8, Grid: true}
	if add.GridProcTime(cm5, 2, 2, 4, 4) <= cm5.LoopOverhead {
		t.Fatal("grid add must cost more than the prologue")
	}
	for name, fn := range map[string]func(){
		"bad grid":  func() { k.GridProcTime(cm5, 0, 2, 1, 1) },
		"neg block": func() { k.GridProcTime(cm5, 2, 2, -1, 1) },
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

func TestMaxGridProcTimeCoversWholeMatrix(t *testing.T) {
	// Work conservation on the grid: per-block spans tile the matrix.
	k := Kernel{Op: OpAdd, M: 13, N: 7, Grid: true}
	total := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			total += spanOf(13, 3, i) * spanOf(7, 2, j)
		}
	}
	if total != 13*7 {
		t.Fatalf("grid blocks cover %d of %d", total, 13*7)
	}
	if k.MaxGridProcTime(cm5, 6) <= 0 {
		t.Fatal("empty MaxGridProcTime")
	}
}
