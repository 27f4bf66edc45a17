package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func rnd(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	m.Fill(func(i, j int) float64 { return rng.NormFloat64() })
	return m
}

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At = %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 {
		t.Fatal("neighbor disturbed")
	}
}

func TestBoundsPanics(t *testing.T) {
	m := New(2, 2)
	for name, fn := range map[string]func(){
		"At row":       func() { m.At(2, 0) },
		"At col":       func() { m.At(0, -1) },
		"Set":          func() { m.Set(0, 5, 1) },
		"neg shape":    func() { New(-1, 2) },
		"block range":  func() { m.Block(0, 3, 0, 1) },
		"setblock fit": func() { m.SetBlock(1, 1, New(2, 2)) },
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

func TestAddSub(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	a.Fill(func(i, j int) float64 { return float64(i*2 + j) })
	b.Fill(func(i, j int) float64 { return 10 })
	dst := New(2, 2)
	if err := Add(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if dst.At(1, 1) != 13 {
		t.Fatalf("add = %v", dst.At(1, 1))
	}
	if err := Sub(dst, dst, b); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, a, 0) {
		t.Fatal("a + b - b != a")
	}
	if err := Add(dst, a, New(3, 2)); err == nil {
		t.Fatal("want shape error")
	}
	if err := Add(New(1, 1), a, b); err == nil {
		t.Fatal("want dst shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := rnd(rng, 4, 4)
	id := New(4, 4)
	for i := 0; i < 4; i++ {
		id.Set(i, i, 1)
	}
	dst := New(4, 4)
	if err := Mul(dst, a, id); err != nil {
		t.Fatal(err)
	}
	if !Equal(dst, a, 1e-15) {
		t.Fatal("a·I != a")
	}
}

func TestMulKnown(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	b := &Matrix{Rows: 3, Cols: 2, Data: []float64{7, 8, 9, 10, 11, 12}}
	dst := New(2, 2)
	if err := Mul(dst, a, b); err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("dst = %v, want %v", dst.Data, want)
		}
	}
	if err := Mul(New(2, 2), a, a); err == nil {
		t.Fatal("want inner dimension error")
	}
	if err := Mul(New(3, 3), a, b); err == nil {
		t.Fatal("want dst shape error")
	}
}

func TestScale(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 3, Data: []float64{1, -2, 3}}
	dst := New(1, 3)
	if err := Scale(dst, -2, a); err != nil {
		t.Fatal(err)
	}
	if dst.Data[0] != -2 || dst.Data[1] != 4 || dst.Data[2] != -6 {
		t.Fatalf("scale = %v", dst.Data)
	}
	if err := Scale(New(2, 2), 1, a); err == nil {
		t.Fatal("want shape error")
	}
}

func TestBlockSetBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := rnd(rng, 6, 5)
	blk := m.Block(1, 4, 2, 5)
	if blk.Rows != 3 || blk.Cols != 3 {
		t.Fatalf("block shape %dx%d", blk.Rows, blk.Cols)
	}
	if blk.At(0, 0) != m.At(1, 2) {
		t.Fatal("block content wrong")
	}
	m2 := New(6, 5)
	m2.SetBlock(1, 2, blk)
	if m2.At(2, 3) != m.At(2, 3) {
		t.Fatal("SetBlock content wrong")
	}
	if m2.At(0, 0) != 0 {
		t.Fatal("SetBlock touched outside rectangle")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatal("clone shares storage")
	}
}

// TestMulDistributesOverAdd: (a+b)·c == a·c + b·c on random matrices.
func TestMulDistributesOverAdd(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 1 + rng.Intn(8)
		m := 1 + rng.Intn(8)
		k := 1 + rng.Intn(8)
		a, b, c := rnd(rng, n, k), rnd(rng, n, k), rnd(rng, k, m)
		ab := New(n, k)
		if Add(ab, a, b) != nil {
			return false
		}
		lhs := New(n, m)
		if Mul(lhs, ab, c) != nil {
			return false
		}
		ac, bc := New(n, m), New(n, m)
		if Mul(ac, a, c) != nil || Mul(bc, b, c) != nil {
			return false
		}
		rhs := New(n, m)
		if Add(rhs, ac, bc) != nil {
			return false
		}
		return Equal(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockReassembly: cutting a matrix into quadrant blocks and
// reassembling reproduces it (the Strassen data path in miniature).
func TestBlockReassembly(t *testing.T) {
	f := func(seed uint16) bool {
		rng := rand.New(rand.NewSource(int64(seed)))
		n := 2 * (1 + rng.Intn(6))
		m := rnd(rng, n, n)
		h := n / 2
		out := New(n, n)
		out.SetBlock(0, 0, m.Block(0, h, 0, h))
		out.SetBlock(0, h, m.Block(0, h, h, n))
		out.SetBlock(h, 0, m.Block(h, n, 0, h))
		out.SetBlock(h, h, m.Block(h, n, h, n))
		return Equal(out, m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := rnd(rng, 64, 64)
	y := rnd(rng, 64, 64)
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Mul(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMulStrip times MulStrip on a rows-row strip of A against a w-wide
// strip of a B whose width is w rounded up to a multiple of 16, read in
// place, and reports multiply-adds per second.
func benchMulStrip(b *testing.B, rows, inner, w int) {
	rng := rand.New(rand.NewSource(4))
	x := rnd(rng, rows+32, inner)
	y := rnd(rng, inner, (w+15)&^15)
	c0 := min(1, y.Cols-w) // an odd offset where the strip leaves room for one
	dst := New(rows, w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulStrip(dst, x, 32, 32+rows, y, c0, c0+w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*inner*w)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmadd/s")
}

// BenchmarkMulStrip16x256x256 is one simulated processor's share of a
// 256×256 multiply on a 16-wide group: a 16-row strip of A against the
// whole of B.
func BenchmarkMulStrip16x256x256(b *testing.B) { benchMulStrip(b, 16, 256, 256) }

// BenchmarkMulStrip15x255x13 is a share of a grid layout on an odd size:
// narrow, at an odd column offset, with a row left over after the pairs,
// a column after the fours and three k after the groups — every tail the
// kernel has.
func BenchmarkMulStrip15x255x13(b *testing.B) { benchMulStrip(b, 15, 255, 13) }

// BenchmarkMulStrip8x64x64 is the strip Strassen-128 on 64 processors
// multiplies most, 56 times a run: an 8-row share of a 64×64 product.
func BenchmarkMulStrip8x64x64(b *testing.B) { benchMulStrip(b, 8, 64, 64) }

// BenchmarkMulStrip15x127x127 is a share of a service-sized job, CMM-127
// on 35 processors, whose multiplies are 15- and 16-row strips: seven
// sixteen-column passes and every narrower step after them, at an odd
// offset, with three k after the groups.
func BenchmarkMulStrip15x127x127(b *testing.B) { benchMulStrip(b, 15, 127, 127) }

// TestAddSubSliceBits holds AddSlice and SubSlice, on every path, to
// x + y and x − y element for element, over every length up to 40 at
// every start of a group of four, into a separate slice and onto either
// operand, with specials and foreign NaN payloads on both sides; and
// nothing past the end of dst may change. Where both operands are NaN,
// which payload the scalar loop keeps is the compiler's choice; the
// vector kernels keep the first operand's, as the loop compiled for
// amd64 does, and must say so in every bit.
func TestAddSubSliceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := append(specials(), math.NaN(), math.Float64frombits(0xfff0000000000123), 3.5, -0.125)
	draw := func() float64 {
		if rng.Intn(3) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return rng.NormFloat64() * 1e3
	}
	quiet := func(x float64) float64 { return math.Float64frombits(math.Float64bits(x) | 1<<51) }
	ops := []struct {
		name string
		fn   func(dst, a, b []float64)
		ref  func(x, y float64) float64
	}{
		{"AddSlice", AddSlice, func(x, y float64) float64 { return x + y }},
		{"SubSlice", SubSlice, func(x, y float64) float64 { return x - y }},
	}
	eachPath(t, func(path string) {
		for _, op := range ops {
			for n := 0; n <= 40; n++ {
				for off := 0; off < 4; off++ {
					a, b := make([]float64, off+n), make([]float64, off+n)
					for i := range a {
						a[i], b[i] = draw(), draw()
					}
					for _, into := range []string{"dst", "a", "b"} {
						buf := make([]float64, off+n+guardLen)
						dst := buf[off : off+n]
						x, y := append([]float64(nil), a...)[off:], append([]float64(nil), b...)[off:]
						switch into {
						case "a":
							copy(dst, x)
							x = dst
						case "b":
							copy(dst, y)
							y = dst
						}
						for i := range buf[off+n:] {
							buf[off+n+i] = guardValue
						}
						op.fn(dst, x, y)
						for i, got := range dst {
							xv, yv := a[off+i], b[off+i]
							want := op.ref(xv, yv)
							both := math.IsNaN(xv) && math.IsNaN(yv)
							if both && path != "portable" {
								want = quiet(xv)
							}
							if both && path == "portable" && math.IsNaN(got) {
								continue
							}
							if !sameBits(got, want) {
								t.Fatalf("%s %s n=%d off=%d into %s: element %d of %v, %v = %#x, want %#x",
									path, op.name, n, off, into, i, xv, yv, math.Float64bits(got), math.Float64bits(want))
							}
						}
						for i, g := range buf[off+n:] {
							if g != guardValue {
								t.Fatalf("%s %s n=%d off=%d: wrote %v %d past the end", path, op.name, n, off, g, i)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkAddSlice256 adds two rows of a CMM-256 block on every path.
func BenchmarkAddSlice256(b *testing.B) {
	x, y, dst := make([]float64, 256), make([]float64, 256), make([]float64, 256)
	for i := range x {
		x[i], y[i] = float64(i)/3, 1-float64(i)/7
	}
	eachPath(b, func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(int64(8 * len(dst)))
			for i := 0; i < b.N; i++ {
				AddSlice(dst, x, y)
			}
		})
	})
}
