// The PR 9 schedule-cache purity gate: for the paper's two real
// programs and a population of generated MDGs, a schedule-cache hit must
// replay the allocate→schedule plan byte-identically to the cold solve
// that filled it — and a fresh cache (a restarted service) repopulated
// by one cold solve must replay the same bytes again. For the runnable
// programs the check extends to the full Result digest: the pipeline
// downstream of the plan is deterministic, so a cached plan yields a
// digest equal to an uncached run's.
package paradigm

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"paradigm/internal/mdg"
	"paradigm/internal/obs"
	"paradigm/internal/oracle"
)

// schedCacheTrace records schedule-cache outcomes and allocation
// backends, the observable evidence that a hit bypassed the solver.
type schedCacheTrace struct {
	mu       sync.Mutex
	outcomes []string
	backends []string
}

func (tr *schedCacheTrace) Observe(e Event) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	switch ev := e.(type) {
	case obs.SchedCache:
		tr.outcomes = append(tr.outcomes, ev.Outcome)
	case AllocDoneEvent:
		tr.backends = append(tr.backends, ev.Backend)
	}
}

func (tr *schedCacheTrace) last() (outcome, backend string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n := len(tr.outcomes); n > 0 {
		outcome = tr.outcomes[n-1]
	}
	if n := len(tr.backends); n > 0 {
		backend = tr.backends[n-1]
	}
	return outcome, backend
}

func samePlan(t *testing.T, label string, ar, br Allocation, as, bs *Schedule) {
	t.Helper()
	if ar.Phi != br.Phi || ar.Ap != br.Ap || ar.Cp != br.Cp {
		t.Fatalf("%s: Φ/A_p/C_p differ: (%v %v %v) vs (%v %v %v)",
			label, ar.Phi, ar.Ap, ar.Cp, br.Phi, br.Ap, br.Cp)
	}
	if len(ar.P) != len(br.P) {
		t.Fatalf("%s: allocation lengths differ", label)
	}
	for i := range ar.P {
		if ar.P[i] != br.P[i] {
			t.Fatalf("%s: P[%d] = %v vs %v", label, i, ar.P[i], br.P[i])
		}
	}
	if as.Makespan != bs.Makespan || as.PB != bs.PB || as.ProcsTotal != bs.ProcsTotal || as.Policy != bs.Policy {
		t.Fatalf("%s: schedule shape differs: %v/%v/%v/%v vs %v/%v/%v/%v", label,
			as.Makespan, as.PB, as.ProcsTotal, as.Policy, bs.Makespan, bs.PB, bs.ProcsTotal, bs.Policy)
	}
	for i := range as.Entries {
		ea, eb := as.Entries[i], bs.Entries[i]
		if as.Alloc[i] != bs.Alloc[i] || ea.Node != eb.Node || ea.Start != eb.Start || ea.Finish != eb.Finish {
			t.Fatalf("%s: entry %d differs: %+v vs %+v", label, i, ea, eb)
		}
		if len(ea.Procs) != len(eb.Procs) {
			t.Fatalf("%s: entry %d proc sets differ", label, i)
		}
		for k := range ea.Procs {
			if ea.Procs[k] != eb.Procs[k] {
				t.Fatalf("%s: entry %d proc %d: %d vs %d", label, i, k, ea.Procs[k], eb.Procs[k])
			}
		}
	}
}

// TestScheduleCacheByteIdentity is the property gate over 50 generated
// MDGs plus the two paper programs: cold solve → warm hit → fresh-cache
// (restart) cold solve → warm hit, all four plans byte-identical, with
// each hit observably bypassing the solver (outcome "hit", backend
// "sched-cache").
func TestScheduleCacheByteIdentity(t *testing.T) {
	cal := testCal(t)
	model := cal.Model()

	graphs := map[string]*mdg.Graph{}
	cmm, err := ComplexMatMul(32, cal)
	if err != nil {
		t.Fatal(err)
	}
	graphs["cmm"] = cmm.G
	strassen, err := Strassen(16, cal)
	if err != nil {
		t.Fatal(err)
	}
	graphs["strassen"] = strassen.G
	for seed := uint64(1); seed <= 50; seed++ {
		g := oracle.RandomGraph(seed, oracle.GenOptions{})
		// The PSA requires a single-source, single-sink MDG.
		if _, _, err := g.EnsureStartStop(); err != nil {
			t.Fatalf("gen-%d: %v", seed, err)
		}
		graphs[fmt.Sprintf("gen-%d", seed)] = g
	}

	const procs = 16
	ctx := context.Background()
	for name, g := range graphs {
		tr := &schedCacheTrace{}
		solve := func(sc *ScheduleCache, wantOutcome, wantBackend string) (Allocation, *Schedule) {
			ar, s, err := AllocateAndScheduleContext(ctx, g, model, procs,
				WithScheduleCache(sc), WithObserver(tr))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			outcome, backend := tr.last()
			if outcome != wantOutcome {
				t.Fatalf("%s: cache outcome %q, want %q", name, outcome, wantOutcome)
			}
			if wantBackend != "" && backend != wantBackend {
				t.Fatalf("%s: alloc backend %q, want %q", name, backend, wantBackend)
			}
			return ar, s
		}

		sc := NewScheduleCache(8, 2)
		coldAr, coldS := solve(sc, "miss", "")
		warmAr, warmS := solve(sc, "hit", string(BackendSchedCache))
		samePlan(t, name+" warm-vs-cold", warmAr, coldAr, warmS, coldS)

		// "Service restart": an empty cache repopulated by one cold solve
		// must replay the identical plan again.
		sc2 := NewScheduleCache(8, 2)
		reAr, reS := solve(sc2, "miss", "")
		samePlan(t, name+" restart-cold-vs-cold", reAr, coldAr, reS, coldS)
		reWarmAr, reWarmS := solve(sc2, "hit", string(BackendSchedCache))
		samePlan(t, name+" restart-warm-vs-cold", reWarmAr, coldAr, reWarmS, coldS)
	}
}

// TestScheduleCacheDigestIdentity runs the two real programs through the
// full pipeline: a run whose plan replays from the schedule cache must
// produce a Result digest byte-identical to an uncached run.
func TestScheduleCacheDigestIdentity(t *testing.T) {
	cal := testCal(t)
	ctx := context.Background()
	for _, name := range []string{"cmm", "strassen"} {
		var (
			p   *Program
			err error
		)
		if name == "cmm" {
			p, err = ComplexMatMul(16, cal)
		} else {
			p, err = Strassen(16, cal)
		}
		if err != nil {
			t.Fatal(err)
		}
		const procs = 4
		m := NewCM5(procs)
		bare, err := RunContext(ctx, p, m, cal, procs)
		if err != nil {
			t.Fatal(err)
		}

		sc := NewScheduleCache(8, 1)
		cold, err := RunContext(ctx, p, m, cal, procs, WithScheduleCache(sc))
		if err != nil {
			t.Fatal(err)
		}
		tr := &schedCacheTrace{}
		warm, err := RunContext(ctx, p, m, cal, procs, WithScheduleCache(sc), WithObserver(tr))
		if err != nil {
			t.Fatal(err)
		}
		if outcome, backend := tr.last(); outcome != "hit" || backend != string(BackendSchedCache) {
			t.Fatalf("%s: warm run outcome %q backend %q, want hit via sched-cache", name, outcome, backend)
		}
		if d := bare.Digest(); cold.Digest() != d || warm.Digest() != d {
			t.Fatalf("%s: digests diverge: bare %s cold %s warm %s",
				name, d, cold.Digest(), warm.Digest())
		}
	}
}
