package paradigm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sort"
	"testing"

	"paradigm/internal/matrix"
	"paradigm/internal/programs"
)

// hashArrays is SHA-256 over the named arrays in name order: each name,
// its shape and then every element's IEEE bits, row-major.
func hashArrays(arrays map[string]*matrix.Matrix) string {
	names := make([]string, 0, len(arrays))
	for name := range arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var buf [8]byte
	for _, name := range names {
		m := arrays[name]
		h.Write([]byte(name))
		binary.LittleEndian.PutUint64(buf[:], uint64(m.Rows))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(m.Cols))
		h.Write(buf[:])
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenProgram is one of the eight programs the data and listing
// goldens pin, with the processor count it is planned on.
type goldenProgram struct {
	name  string
	build func() (*Program, error)
	procs int
}

// goldenPrograms lists the programs of TestProgramDataGolden and
// TestStreamsListingGolden: both paper programs at several sizes, the
// recursive and grid variants, and a frontend-compiled source.
func goldenPrograms(cal *Calibration) []goldenProgram {
	const wave = "param n = 23\n" +
		"matrix A = init(n, n, wave)\n" +
		"matrix B = init(n, n, wave) @ grid\n" +
		"matrix R = init(n, n, ramp) @ col\n" +
		"matrix C = A * B\n" +
		"matrix D = C - R\n"
	return []goldenProgram{
		{"cmm32", func() (*Program, error) { return ComplexMatMul(32, cal) }, 16},
		{"cmm127", func() (*Program, error) { return ComplexMatMul(127, cal) }, 32},
		{"cmm256", func() (*Program, error) { return ComplexMatMul(256, cal) }, 64},
		{"strassen16", func() (*Program, error) { return Strassen(16, cal) }, 8},
		{"strassen128", func() (*Program, error) { return Strassen(128, cal) }, 64},
		{"strassen-rec32-d2", func() (*Program, error) { return StrassenRecursive(32, 2, cal) }, 16},
		{"cmm-grid48", func() (*Program, error) { return programs.ComplexMatMulLayout(48, cal, true) }, 16},
		{"frontend-wave23", func() (*Program, error) { return CompileSource("wave", wave, cal) }, 8},
	}
}

// TestProgramDataGolden pins the bits of the data the programs generate
// and compute: every array of the sequential reference run and every
// array the simulator gathers after a full pipeline run, hashed, against
// a digest recorded once. Result.Digest and the golden schedules cover
// the plan, not the values; this is what holds the generators and the
// kernels to their exact floating-point results. The pinned bits are
// those of amd64 without fused multiply-adds (the default GOAMD64=v1),
// where math.Sin and MulStrip round every operation on its own.
func TestProgramDataGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("data digests are pinned for amd64")
	}
	want := map[string]string{
		"cmm32":             "d7fb7449307d281f8cc4a5d1317a42c11c1fe02efac604c466430c2fdca1dd34",
		"cmm127":            "48725e04a79409323bb1d1cbe07dffcda5395143608fa5ea7c60678065b3e182",
		"cmm256":            "86b88347a3017912048fc843fbcec2d21ec739032032320652127876e9567d72",
		"strassen16":        "912c78de1fd7a3514b89cf5cdd3df4c17ae00a9f87ebee14c9b32d64d5dc8dbd",
		"strassen128":       "77aff15b61d24588733f9a2c5d9f2df01710838d90b2f6a9d77fa421d98b00ea",
		"strassen-rec32-d2": "394faa4bd80f231f2daf8d33677af91ce598ad972db4c90cc313b6e9f0817660",
		"cmm-grid48":        "24a94957635fddf45b97312647817e394da78be109afd31b99c8a7015afb3d2c",
		"frontend-wave23":   "f589fcaba7fb1f09afbec8a6bbd171ec203d91d47acd300826f4bf238936f13f",
	}
	cal := testCal(t)
	for _, c := range goldenPrograms(cal) {
		t.Run(c.name, func(t *testing.T) {
			p, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := p.ReferenceRun()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunContext(context.Background(), p, NewCM5(c.procs), cal, c.procs)
			if err != nil {
				t.Fatal(err)
			}
			sim := map[string]*matrix.Matrix{}
			for name := range p.Arrays {
				if sim[name], err = res.Sim.Gather(name); err != nil {
					t.Fatal(err)
				}
			}
			refHash, simHash := hashArrays(ref), hashArrays(sim)
			if refHash != want[c.name] || simHash != want[c.name] {
				t.Errorf("data digest: reference %s, simulator %s, want %s", refHash, simHash, want[c.name])
			}
		})
	}
}
