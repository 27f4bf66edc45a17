package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// trigInputs returns n seeded arguments of five kinds, in turn: normal
// deviates, uniform on ±1e9 (across the 2²⁹ hand-off), random bit patterns
// (NaNs, infinities, subnormals and huge values among them), tiny values
// and multiples of π/4 nudged by a few ulps, where the octant flips; then
// the special values, each at every offset of a group of four.
func trigInputs(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, 0, n+256)
	for i := 0; i < n; i++ {
		var x float64
		switch i % 5 {
		case 0:
			x = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)))
		case 1:
			x = (2*rng.Float64() - 1) * 1e9
		case 2:
			x = math.Float64frombits(rng.Uint64())
		case 3:
			x = rng.NormFloat64() * math.Pow(2, -float64(rng.Intn(1075)))
		case 4:
			x = float64(rng.Intn(1<<20)-1<<19) * (math.Pi / 4)
			for k := rng.Intn(9) - 4; k != 0; {
				if k > 0 {
					x, k = math.Nextafter(x, math.Inf(1)), k-1
				} else {
					x, k = math.Nextafter(x, math.Inf(-1)), k+1
				}
			}
		}
		xs = append(xs, x)
	}
	limit := float64(1 << 29)
	specials := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, math.MaxFloat64, -math.MaxFloat64,
		limit, -limit, math.Nextafter(limit, 0), -math.Nextafter(limit, 0),
		math.Nextafter(limit, math.Inf(1)), math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
	}
	for _, s := range specials {
		for off := 0; off < 4; off++ {
			for k := 0; k < 4; k++ {
				x := 0.5 + float64(k)
				if k == off {
					x = s
				}
				xs = append(xs, x)
			}
		}
	}
	return xs
}

// requireTrigBits holds Sin and Cos over xs to math.Sin and math.Cos, bit
// for bit, into a separate result slice and in place.
func requireTrigBits(t *testing.T, xs []float64) {
	t.Helper()
	for _, f := range []struct {
		name string
		vec  func(dst, src []float64)
		ref  func(float64) float64
	}{{"Sin", Sin, math.Sin}, {"Cos", Cos, math.Cos}} {
		got := make([]float64, len(xs))
		f.vec(got, xs)
		inPlace := append([]float64(nil), xs...)
		f.vec(inPlace, inPlace)
		for i, x := range xs {
			want := math.Float64bits(f.ref(x))
			if g := math.Float64bits(got[i]); g != want {
				t.Fatalf("%s(%v) [%#x] at %d = %#x, math.%s gives %#x", f.name, x, math.Float64bits(x), i, g, f.name, want)
			}
			if g := math.Float64bits(inPlace[i]); g != want {
				t.Fatalf("%s in place (%v) at %d = %#x, math.%s gives %#x", f.name, x, i, g, f.name, want)
			}
		}
	}
}

func TestSinCosMatchMath(t *testing.T) {
	n := 4 << 20
	if testing.Short() {
		n = 1 << 16
	}
	xs := trigInputs(n, 1)
	// The path init picked runs as "vector", the portable one as
	// "scalar", and any narrower vector kernel under its own name.
	picked := reflect.ValueOf(sinVec).Pointer()
	eachPath(t, func(path string) {
		switch {
		case path == "portable":
			path = "scalar"
		case reflect.ValueOf(sinVec).Pointer() == picked:
			path = "vector"
		}
		t.Run(path, func(t *testing.T) { requireTrigBits(t, xs) })
	})
}

func TestSinCosLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sin(make([]float64, 3), make([]float64, 4))
}

// FuzzSinCos runs Sin and Cos over a slice of random length starting at
// a random offset into the fuzzer's argument bits, so that tails and
// misaligned starts come up, against math.Sin and math.Cos.
func FuzzSinCos(f *testing.F) {
	f.Add(uint8(0), uint8(9), []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
	f.Add(uint8(3), uint8(17), []byte("\x18\x2d\x44\x54\xfb\x21\xe9\x3f-PI/4-then-some-more-bytes-to-fill-a-few-groups-of-four"))
	f.Fuzz(func(t *testing.T, off, n uint8, raw []byte) {
		var xs []float64
		for ; len(raw) >= 8; raw = raw[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		}
		lo := min(int(off), len(xs))
		hi := min(lo+int(n), len(xs))
		eachPath(t, func(string) { requireTrigBits(t, xs[lo:hi]) })
	})
}

// TestTrigVectorCoversItsRange pins which groups the vector kernels take:
// every whole group of four in range, up to the first group of four with
// an argument out of range — on every width, so that a 512-bit kernel
// whose group of eight holds one such argument still takes the four
// before it. Without it a kernel that declined everything would pass the
// bit checks on the scalar loop.
func TestTrigVectorCoversItsRange(t *testing.T) {
	vectors := 0
	eachPath(t, func(path string) {
		if sinVec == nil {
			return
		}
		vectors++
		xs := []float64{0.5, -1, 3e8, -2e-300, 7, 8, 9, 10, 1, 2, 0, 3, 4, 5}
		dst := make([]float64, len(xs))
		if got := sinVec(&dst[0], &xs[0], len(xs)); got != 8 {
			t.Fatalf("%s: sin kernel wrote %d, want 8 (stop at the group with a zero)", path, got)
		}
		if got := cosVec(&dst[0], &xs[0], len(xs)); got != 12 {
			t.Fatalf("%s: cos kernel wrote %d, want 12 (a zero is in range, the tail of 2 is not)", path, got)
		}
		// One argument out of range at every place of 24 arguments in
		// range: two groups of eight and one more, for the 512-bit
		// kernels' two loops and their tail.
		for _, bad := range []float64{math.NaN(), math.Inf(-1), 1 << 29, -(1 << 30)} {
			for at := 0; at < 24; at++ {
				ys := make([]float64, 24)
				for i := range ys {
					ys[i] = 0.25 + float64(i)
				}
				ys[at] = bad
				dst := make([]float64, len(ys))
				want := at &^ 3
				if got := sinVec(&dst[0], &ys[0], len(ys)); got != want {
					t.Fatalf("%s: sin kernel wrote %d with %v at %d, want %d", path, got, bad, at, want)
				}
				if got := cosVec(&dst[0], &ys[0], len(ys)); got != want {
					t.Fatalf("%s: cos kernel wrote %d with %v at %d, want %d", path, got, bad, at, want)
				}
				for i, y := range ys[:want] {
					if math.Float64bits(dst[i]) != math.Float64bits(math.Cos(y)) {
						t.Fatalf("%s: cos(%v) at %d = %v, math.Cos gives %v", path, y, i, dst[i], math.Cos(y))
					}
				}
			}
		}
	})
	if vectors == 0 {
		t.Skip("no vector trig kernel on this machine")
	}
}

// BenchmarkSin256 times Sin over one CMM-256 row of arguments, on every
// path this machine has.
func BenchmarkSin256(b *testing.B) {
	src := make([]float64, 256)
	for j := range src {
		src[j] = 0.7 + float64(j)/65536*2*math.Pi
	}
	dst := make([]float64, len(src))
	eachPath(b, func(path string) {
		b.Run(path, func(b *testing.B) {
			b.SetBytes(int64(8 * len(src)))
			for i := 0; i < b.N; i++ {
				Sin(dst, src)
			}
		})
	})
}
