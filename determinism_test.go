// The allocator determinism gate: its solve paths — the cold exact
// solve and the allocation cache's exact-hit replay — must never
// trade reproducibility for speed. For the paper's two real programs and
// a population of generated MDGs, a cold solve must return byte-identical
// allocations at one worker, four workers, and every available core, and
// an exact hit must replay the solve it memoized byte for byte.
package paradigm

import (
	"fmt"
	"runtime"
	"testing"

	"paradigm/internal/alloc"
	"paradigm/internal/mdg"
	"paradigm/internal/oracle"
	"paradigm/internal/par"
)

func sameAlloc(t *testing.T, label string, a, b alloc.Result) {
	t.Helper()
	if a.Phi != b.Phi || a.Ap != b.Ap || a.Cp != b.Cp {
		t.Fatalf("%s: Φ/A_p/C_p differ: (%v %v %v) vs (%v %v %v)",
			label, a.Phi, a.Ap, a.Cp, b.Phi, b.Ap, b.Cp)
	}
	if len(a.P) != len(b.P) {
		t.Fatalf("%s: allocation lengths differ", label)
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("%s: P[%d] = %v vs %v", label, i, a.P[i], b.P[i])
		}
	}
}

func TestAllocDeterminismAcrossWidthsAndModes(t *testing.T) {
	cal := testCal(t)
	model := cal.Model()

	graphs := map[string]*mdg.Graph{}
	cmm, err := ComplexMatMul(64, cal)
	if err != nil {
		t.Fatal(err)
	}
	graphs["cmm"] = cmm.G
	strassen, err := Strassen(64, cal)
	if err != nil {
		t.Fatal(err)
	}
	graphs["strassen"] = strassen.G
	for seed := uint64(1); seed <= 50; seed++ {
		graphs[fmt.Sprintf("gen-%d", seed)] = oracle.RandomGraph(seed, oracle.GenOptions{})
	}

	widths := []string{"1", "4", fmt.Sprint(runtime.GOMAXPROCS(0))}
	const procs = 16
	for name, g := range graphs {
		// base[mode] is the width-1 result each other width must match.
		var baseCold, baseWarm alloc.Result
		for wi, width := range widths {
			t.Setenv(par.EnvWorkers, width)
			cache := alloc.NewCache(4)
			cold, err := alloc.Solve(g, model, procs, alloc.Options{Cache: cache})
			if err != nil {
				t.Fatalf("%s width %s: cold: %v", name, width, err)
			}
			if cold.CacheOutcome != "miss" {
				t.Fatalf("%s width %s: cold outcome %q", name, width, cold.CacheOutcome)
			}
			warm, err := alloc.Solve(g, model, procs, alloc.Options{Cache: cache})
			if err != nil {
				t.Fatalf("%s width %s: warm: %v", name, width, err)
			}
			if warm.CacheOutcome != "hit" {
				t.Fatalf("%s width %s: warm outcome %q", name, width, warm.CacheOutcome)
			}
			// The exact hit replays the cold solve it memoized.
			sameAlloc(t, name+" warm-vs-cold width "+width, warm, cold)
			if wi == 0 {
				baseCold, baseWarm = cold, warm
				continue
			}
			sameAlloc(t, name+" cold width "+width, cold, baseCold)
			sameAlloc(t, name+" warm width "+width, warm, baseWarm)
		}
	}
}
