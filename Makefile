# Developer / CI entry points. `make ci` is the gate: formatting, vet,
# build, the full test suite under the race detector, a fuzz smoke run
# over the oracle's targets, and a short benchmark smoke run proving the
# benchmarks still execute.

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci fmt-check vet build test test-race race fuzz-smoke bench-smoke bench-module bench-current bench-json bench-pr2 bench-pr3 bench-pr5 bench-pr6 bench-pr8 bench-pr9 bench-pr10 smoke-paradigmd smoke-paradigmd-chaos smoke-paradigmd-tenants smoke-paradigmd-cluster

ci: fmt-check vet build test-race fuzz-smoke bench-smoke bench-module bench-pr2 bench-pr3 bench-pr5 bench-pr6 bench-pr8 bench-pr9 bench-pr10 smoke-paradigmd smoke-paradigmd-chaos smoke-paradigmd-tenants smoke-paradigmd-cluster

# gofmt gate: fails listing the offending files, mutating nothing.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 suite under the race detector — the CI form of `make test`.
test-race:
	$(GO) test -race ./...

race: test-race

# Coverage-guided smoke run of every oracle fuzz target (the committed
# seed corpora also run as plain subtests under `make test`). Each target
# gets FUZZTIME of exploration; a crasher fails the gate.
fuzz-smoke:
	$(GO) test ./internal/oracle/ -run '^$$' -fuzz '^FuzzSolve$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -run '^$$' -fuzz '^FuzzPSA$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/oracle/ -run '^$$' -fuzz '^FuzzMDGParse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ckpt/ -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobstore/ -run '^$$' -fuzz '^FuzzJobJournalDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/machine/ -run '^$$' -fuzz '^FuzzMachineSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/admission/ -run '^$$' -fuzz '^FuzzPolicyConfigDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fault/ -run '^$$' -fuzz '^FuzzFaultPlan$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/expr/ -run '^$$' -fuzz '^FuzzEvalTape$$' -fuzztime $(FUZZTIME)

# One iteration of the calibration- and allocation-path benchmarks: fast,
# and enough to catch a benchmark that no longer compiles or errors out.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2TransferFit|BenchmarkAllocSolve' -benchtime=1x -benchmem .

# The repo's benchmark (BENCHMARK.json, bench/) is a Go module of its
# own, so the root build, vet and test never compile it: vet it and run
# its short tests here, or an internal API change breaks it unnoticed
# until the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Full benchmark sweep, one iteration each, saved for the trajectory
# harness (see BENCH_PR1.json and cmd/benchjson).
bench-current:
	$(GO) test -run '^$$' -bench . -benchtime=1x -benchmem . | tee bench_current.txt

# Regenerate the trajectory JSON from saved baseline/current runs.
bench-json:
	$(GO) run ./cmd/benchjson -baseline bench_baseline.txt -current bench_current.txt -o BENCH.json

# PR 2 observability benchmarks: the nil-observer vs with-observer Run
# pair (the overhead budget of the event layer) plus the allocation fast
# path, folded into BENCH_PR2.json for the trajectory harness.
bench-pr2:
	$(GO) test -run '^$$' -bench 'BenchmarkRunNilObserver|BenchmarkRunWithObserver|BenchmarkAllocSolve' -benchtime=1x -benchmem . | tee bench_pr2.txt
	$(GO) run ./cmd/benchjson -current bench_pr2.txt -label "PR 2: observability layer (Run nil-observer vs with-observer)" -o BENCH_PR2.json

# PR 3 fault-tolerance benchmarks: the fault-free Run baseline vs a run
# that loses a processor mid-flight and replans on the survivors — the
# cost of one full survive-and-recover cycle — folded into
# BENCH_PR3.json for the trajectory harness.
bench-pr3:
	$(GO) test -run '^$$' -bench 'BenchmarkRunNoFaults|BenchmarkRunWithRecovery' -benchtime=1x -benchmem . | tee bench_pr3.txt
	$(GO) run ./cmd/benchjson -current bench_pr3.txt -label "PR 3: fault injection + recovery (Run no-faults vs with-recovery)" -o BENCH_PR3.json

# PR 5 crash-safety benchmarks: the production-scale Run baseline vs the
# same run committing every stage boundary to the write-ahead checkpoint
# log (the <3% overhead budget of DESIGN.md §11), folded into
# BENCH_PR5.json for the trajectory harness.
bench-pr5:
	$(GO) test -run '^$$' -bench 'BenchmarkRunNoCheckpoint|BenchmarkRunWithCheckpoint' -benchtime=1x -benchmem . | tee bench_pr5.txt
	$(GO) run ./cmd/benchjson -current bench_pr5.txt -label "PR 5: crash-safe checkpointing (Run without vs with WAL)" -o BENCH_PR5.json

# PR 6 solver raw-speed benchmarks: the single-start baseline vs the
# racing multi-start (the ≥5× pruning win), the warm-start cache's
# exact-hit replay (the ≥100× memoization win), and the consensus-ADMM
# decomposition scaling over subgraph count on a 1000-node MDG — folded
# into BENCH_PR6.json for the trajectory harness.
bench-pr6:
	$(GO) test -run '^$$' -bench 'BenchmarkAllocSolve' -benchtime=1x -benchmem . | tee bench_pr6.txt
	$(GO) run ./cmd/benchjson -current bench_pr6.txt -label "PR 6: solver raw speed (racing multi-start, warm cache, consensus ADMM)" -o BENCH_PR6.json

# PR 8 durability benchmarks: the submit path over live HTTP without vs
# with the job journal's commit-before-acknowledge — the <5% overhead
# budget of the durable accept path — folded into BENCH_PR8.json for
# the trajectory harness.
bench-pr8:
	$(GO) test ./cmd/paradigmd/ -run '^$$' -bench 'BenchmarkSubmit' -benchtime=100x -benchmem | tee bench_pr8.txt
	$(GO) run ./cmd/benchjson -current bench_pr8.txt -label "PR 8: durable job journal (submit path without vs with journal)" -o BENCH_PR8.json

# PR 9 multi-tenant load benchmarks: the seeded Poisson/Gamma arrival
# wave (internal/loadgen) from two tenants against a cold server (every
# plan solved) vs a warm one (plans replayed from the schedule cache),
# reporting jobs/sec and p99 submit→terminal latency — folded into
# BENCH_PR9.json for the trajectory harness.
bench-pr9:
	$(GO) test ./cmd/paradigmd/ -run '^$$' -bench 'BenchmarkServiceLoad' -benchtime=1x | tee bench_pr9.txt
	$(GO) run ./cmd/benchjson -current bench_pr9.txt -label "PR 9: multi-tenant service load (cold solve vs schedule-cache warm)" -o BENCH_PR9.json

# PR 10 cluster-mode load benchmarks: the seeded arrival wave against a
# cluster-mode paradigmd (shared processor pool, least-loaded router),
# with and without a partition death every 8th placement, cold vs warm
# schedule cache — jobs/sec and p99 folded into BENCH_PR10.json for the
# trajectory harness.
bench-pr10:
	$(GO) test ./cmd/paradigmd/ -run '^$$' -bench 'BenchmarkClusterLoad' -benchtime=1x | tee bench_pr10.txt
	$(GO) run ./cmd/benchjson -current bench_pr10.txt -label "PR 10: cluster-mode load (pool faults vs fault-free, cold vs warm)" -o BENCH_PR10.json

# Boot the scheduling service on an ephemeral port, submit a job, poll
# it to completion, fetch its schedule and the metrics page, then drain:
# the end-to-end smoke of cmd/paradigmd.
smoke-paradigmd:
	$(GO) run ./cmd/paradigmd -addr 127.0.0.1:0 -smoke

# The service-level chaos gate: SIGKILL a paradigmd subprocess with
# acknowledged jobs in flight, restart it on the same checkpoint
# directory, and require every acknowledged job to finish byte-identical
# (by result digest) to an oracle-validated crash-free run.
smoke-paradigmd-chaos:
	$(GO) test ./cmd/paradigmd/ -run '^TestChaosKillRestart$$' -count=1 -timeout 600s -v

# The multi-tenant service gate: tiered admission (gold tenant ahead of
# free, over-bucket tenant 429'd while others proceed), submit
# coalescing (one solve for concurrent identical submits), per-tenant
# isolation of job listings, and the fairness/cache counters on
# /metrics.
smoke-paradigmd-tenants:
	$(GO) test ./cmd/paradigmd/ -run '^TestServiceTenantAdmission$$' -count=1 -v

# The cluster chaos gate, both faces: the library-level shared-clock
# simulation under -race (seeded pool deaths mid-stream across 12
# concurrent jobs, every completed job's data digest byte-identical to
# its fault-free run, deterministic SLO-class shedding, byte-exact
# counterfactual replay) and the service-level cluster mode (partition
# deaths every 3rd placement, zero acknowledged jobs lost, oversized
# request degraded onto the shrunken pool instead of refused).
smoke-paradigmd-cluster:
	$(GO) test . -race -run '^TestCluster' -count=1 -timeout 600s
	$(GO) test ./cmd/paradigmd/ -run '^TestServiceCluster' -count=1 -v
