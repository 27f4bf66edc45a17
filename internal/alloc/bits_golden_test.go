package alloc_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"paradigm/internal/alloc"
)

// solveBitsGolden is the SHA-256, per population, of every solve's
// result bits (solveDigest). It was recorded before any change to the
// solver's arithmetic and must never be re-recorded by a speed change:
// a faster solve keeps every float's operation order, so every bit.
var solveBitsGolden = map[string]string{
	"oracle200":       "179fac016db9a13353b1defd93b749778d42a4454a49e79937673c7328dc3760",
	"planted200":      "d444e1e497745e5b0ff4f3c243d3d5ef350c9dcfe32f21351db41ebd3ea9b4fb",
	"determinism50":   "a3bc4052566779d3ef298b3c5b5e33936c5b61cfaf5a0cfa0283efc0b59a75fb",
	"strassen-sweep":  "8a7dd875d1aa688c9485cd05fa74aa208e312d69a598848325ca6cfca27a7f66",
	"svc-cold300":     "9951ef45cfabde95fe7bbed5ed33eb34bc4f012cafdb4dc46da3150aaf94cb2d",
	"strassen128-p64": "f601358213412de257d81eaf0193b441c1bd11f505987a303a674e60e4e26980",
	"cmm256-p64":      "84ccb619633c82fafd19c303307e1194f2a943e266c016ec23b8134d67b92c8c",
}

// TestSolveBitsGolden pins the exact solve bit for bit on the 780
// instances of solverPopulations and on the benchmark's two programs at
// p = 64: X, F, Gap, P and Φ by their Float64bits, with Iters, Evals and
// Status.
func TestSolveBitsGolden(t *testing.T) {
	cal := trainedModel(t)
	pops := append(solverPopulations(t),
		population{"strassen128-p64", []instance{programInstance(t, cal, "strassen", 128, 64)}},
		population{"cmm256-p64", []instance{programInstance(t, cal, "cmm", 256, 64)}})
	for _, pop := range pops {
		h := sha256.New()
		for _, in := range pop.set {
			res, err := alloc.Solve(in.g, in.model, in.procs, alloc.Options{})
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			solveDigest(h, res)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := solveBitsGolden[pop.name]; got != want {
			t.Errorf("%s: solve bits %s, want %s", pop.name, got, want)
		}
	}
}

// solveDigest writes one solve's result bits into h.
func solveDigest(h hash.Hash, res alloc.Result) {
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(vs ...float64) {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(math.Float64bits(v))
		}
	}
	sol := res.Solver
	floats(sol.X...)
	floats(sol.F, sol.Gap)
	floats(res.P...)
	floats(res.Phi)
	word(uint64(sol.Iters))
	word(uint64(sol.Evals))
	word(uint64(sol.Status))
}
