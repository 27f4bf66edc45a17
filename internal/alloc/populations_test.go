package alloc_test

import (
	"fmt"
	"testing"

	"paradigm/internal/oracle"
)

// population is one named set of allocation problems.
type population struct {
	name string
	set  []instance
}

// solverPopulations are the differential gates' 780 instances: the
// oracle's 200 generated MDGs at p = 16, 200 planted-symmetry MDGs at
// p = 8 (both on the CM-5 fit), determinism_test's 50 on the trained model,
// the 30-configuration Strassen sweep and the benchmark's 300 cold CMM
// specs (bench/gen.go: a stride coprime to a 96 × 32 grid of CMM sizes 32…
// and system sizes 4…).
func solverPopulations(t testing.TB) []population {
	cal := trainedModel(t)
	model := cal.Model()
	var randomGen, planted, determinism, sweep, cold []instance
	for seed := uint64(1); seed <= 200; seed++ {
		randomGen = append(randomGen, instance{fmt.Sprintf("oracle-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), cm5Fit, 16})
		planted = append(planted, instance{fmt.Sprintf("planted-%d", seed), oracle.PlantedGraph(seed, oracle.GenOptions{}), cm5Fit, 8})
	}
	for seed := uint64(1); seed <= 50; seed++ {
		determinism = append(determinism, instance{fmt.Sprintf("determinism-%d", seed), oracle.RandomGraph(seed, oracle.GenOptions{}), model, 16})
	}
	for _, n := range []int{16, 32, 64, 128, 256} {
		for _, procs := range []int{4, 8, 16, 32, 64, 128} {
			sweep = append(sweep, programInstance(t, cal, "strassen", n, procs))
		}
	}
	const gridSizes, gridProcs, stride = 96, 32, 1021
	for i := 0; i < 300; i++ {
		cell := i * stride % (gridSizes * gridProcs)
		cold = append(cold, programInstance(t, cal, "cmm", 32+cell/gridProcs, 4+cell%gridProcs))
	}
	return []population{{"oracle200", randomGen}, {"planted200", planted}, {"determinism50", determinism}, {"strassen-sweep", sweep}, {"svc-cold300", cold}}
}
