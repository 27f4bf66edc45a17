package mdg_test

import (
	"fmt"
	"slices"
	"testing"

	"paradigm/internal/machine"
	"paradigm/internal/prog"
	"paradigm/internal/programs"
	"paradigm/internal/trainsets"
)

// committedPrograms builds every program the repo commits to: CMM at the
// sizes the benchmarks, experiments and goldens use, its grid layout,
// Strassen at 16 (the goldens) and 128 (the benchmark), and recursive
// Strassen at depth 2.
func committedPrograms(t testing.TB) map[string]*prog.Program {
	t.Helper()
	cal, err := trainsets.Calibrate(machine.CM5(64))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*prog.Program{}
	add := func(name string, p *prog.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	for _, n := range []int{16, 32, 56, 256} {
		p, err := programs.ComplexMatMul(n, cal)
		add(fmt.Sprintf("cmm%d", n), p, err)
	}
	p, err := programs.ComplexMatMulLayout(64, cal, true)
	add("cmm64-grid", p, err)
	for _, n := range []int{16, 128} {
		p, err := programs.Strassen(n, cal)
		add(fmt.Sprintf("strassen%d", n), p, err)
	}
	p, err = programs.StrassenRecursive(64, 2, cal)
	add("strassen64-rec2", p, err)
	return out
}

// TestOrbitsEqualColorClassesOnCommittedPrograms turns "tied nodes are
// automorphic in practice" into a checked fact: on every program the repo
// builds, each color class refinement proposes is a verified orbit.
func TestOrbitsEqualColorClassesOnCommittedPrograms(t *testing.T) {
	wantOrbits := map[string][2]int{ // nodes, orbits
		"cmm16": {12, 5}, "cmm256": {12, 5},
		"strassen16": {35, 20}, "strassen128": {35, 20},
		"strassen64-rec2": {266, 137},
	}
	for name, p := range committedPrograms(t) {
		orbit, err := p.G.Orbits()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if classes := p.G.ColorClasses(); !slices.Equal(orbit, classes) {
			t.Errorf("%s: orbits %v, color classes %v", name, orbit, classes)
		}
		k := slices.Max(orbit) + 1
		if w, ok := wantOrbits[name]; ok && (p.G.NumNodes() != w[0] || k != w[1]) {
			t.Errorf("%s: %d nodes in %d orbits, want %d in %d", name, p.G.NumNodes(), k, w[0], w[1])
		}
		t.Logf("%-16s %d nodes, %d orbits", name, p.G.NumNodes(), k)
	}
}

// TestOrbitsOfStrassenPairTheTransposedProgram names Strassen's orbits:
// C = A·B read as Cᵀ = Bᵀ·Aᵀ swaps A with B and each quadrant with its
// transpose partner, and the orbits are exactly those swaps. With -v it
// lists the orbits of Strassen-128 and CMM-256 by node name.
func TestOrbitsOfStrassenPairTheTransposedProgram(t *testing.T) {
	progs := committedPrograms(t)
	g := progs["strassen128"].G
	orbit, err := g.Orbits()
	if err != nil {
		t.Fatal(err)
	}
	id := map[string]int{}
	for i, nd := range g.Nodes {
		id[nd.Name] = i
	}
	for _, pair := range [][2]string{{"init_A11", "init_B22"}, {"init_A12", "init_B12"}, {"S1", "T1"}, {"M2", "M4"}, {"M6", "M7"}, {"U1", "U3"}, {"C11", "C22"}} {
		a, okA := id[pair[0]]
		b, okB := id[pair[1]]
		if !okA || !okB {
			t.Fatalf("no nodes named %v in %v", pair, id)
		}
		if orbit[a] != orbit[b] {
			t.Errorf("%s and %s are in orbits %d and %d", pair[0], pair[1], orbit[a], orbit[b])
		}
	}
	for _, name := range []string{"strassen128", "cmm256"} {
		g := progs[name].G
		orbit, _ := g.Orbits()
		members := make([][]string, slices.Max(orbit)+1)
		for i, c := range orbit {
			members[c] = append(members[c], g.Nodes[i].Name)
		}
		t.Logf("%s orbits: %v", name, members)
	}
}

// BenchmarkOrbitsStrassen128 times a cold Orbits call (memo dropped every
// iteration) on the benchmark's Strassen MDG.
func BenchmarkOrbitsStrassen128(b *testing.B) {
	g := committedPrograms(b)["strassen128"].G
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ForgetOrbits()
		if _, err := g.Orbits(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOrbitsColdCallBudget holds a cold Orbits call on Strassen-128 to
// its allocation budget, and a warm one to none.
func TestOrbitsColdCallBudget(t *testing.T) {
	g := committedPrograms(t)["strassen128"].G
	cold := testing.AllocsPerRun(20, func() {
		g.ForgetOrbits()
		if _, err := g.Orbits(); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 100 {
		t.Errorf("cold Orbits on Strassen-128: %v allocations, budget 100", cold)
	}
	warm := testing.AllocsPerRun(20, func() {
		if _, err := g.Orbits(); err != nil {
			t.Fatal(err)
		}
	})
	if warm != 0 {
		t.Errorf("memoised Orbits on Strassen-128: %v allocations, want 0", warm)
	}
}
