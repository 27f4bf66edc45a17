# Developer / CI entry points. `make ci` is the gate: formatting, vet,
# build, the full test suite under the race detector, a fuzz smoke run
# over every fuzz target, and a short benchmark smoke run proving the
# benchmarks still execute.

GO ?= go
FUZZTIME ?= 10s

.PHONY: ci fmt-check vet build test test-race race fuzz-smoke bench-smoke bench-module smoke-paradigmd smoke-paradigmd-chaos smoke-paradigmd-memory smoke-paradigmd-tenants smoke-paradigmd-cluster smoke-examples smoke-cli

ci: fmt-check vet build test-race fuzz-smoke bench-smoke bench-module smoke-paradigmd smoke-paradigmd-chaos smoke-paradigmd-memory smoke-paradigmd-tenants smoke-paradigmd-cluster smoke-examples smoke-cli

# gofmt gate: fails listing the offending files, mutating nothing.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The second line vets the simulator's compute plane as another
# architecture sees it: the portable file set keeps compiling there, and
# on amd64 asmdecl holds the assembly to its Go declarations. The third
# runs the schedule cache's tests with a 32-bit int, where its shard
# routing once indexed with a negative hash. The fourth runs the matrix
# package where it has no vector kernels: the scalar paths of MulStrip,
# Sin and Cos against their references.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/matrix/ ./internal/sim/
	GOARCH=386 $(GO) test ./internal/schedcache/
	GOARCH=386 $(GO) test ./internal/matrix/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 suite under the race detector — the CI form of `make test`.
test-race:
	$(GO) test -race ./...

race: test-race

# Coverage-guided smoke run of every fuzz target (the committed
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
	$(GO) test ./internal/matrix/ -run '^$$' -fuzz '^FuzzMulStrips$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/matrix/ -run '^$$' -fuzz '^FuzzSinCos$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/convex/ -run '^$$' -fuzz '^FuzzEpigraph$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/mdg/ -run '^$$' -fuzz '^FuzzOrbits$$' -fuzztime $(FUZZTIME)

# One iteration of every benchmark a design document cites — calibration,
# the allocation paths, the program build (whose allocs/op is where an
# AddEdge gone quadratic again would show), the Run pairs behind the
# observability, recovery and checkpoint budgets, the simulator's data
# plane and its strip kernel (a wide shape and a narrow, odd one that ends
# in every tail the vector kernel has, each reporting multiply-adds per
# second) and its vector sine over one row, a cold automorphism-orbit
# computation on Strassen-128, the exact solve's setup alone (compile,
# epigraph form, interior-point setup) on Strassen-128, and the service's
# submit path with and without the journal: enough to catch one that no
# longer compiles or errors out.
# It writes no file. Measurements come from the repo's benchmark (bench/);
# the service under load is its closed-loop svc_cold and svc_hot workloads.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkAllocSolve|BenchmarkBuildStrassen128|BenchmarkRunNilObserver|BenchmarkRunWithObserver|BenchmarkRunNoFaults|BenchmarkRunWithRecovery|BenchmarkRunNoCheckpoint|BenchmarkRunWithCheckpoint|BenchmarkRunCMM256P64|BenchmarkSimRun|BenchmarkGenerate' -benchtime=1x -benchmem .
	$(GO) test -run '^$$' -bench 'BenchmarkTable2TransferFit' -benchtime=1x -benchmem ./internal/experiments/
	$(GO) test -run '^$$' -bench 'BenchmarkMulStrip|BenchmarkSin256' -benchtime=1x -benchmem ./internal/matrix/
	$(GO) test -run '^$$' -bench 'BenchmarkOrbitsStrassen128' -benchtime=1x -benchmem ./internal/mdg/
	$(GO) test -run '^$$' -bench 'BenchmarkSolveSetupStrassen128' -benchtime=1x -benchmem ./internal/alloc/
	$(GO) test -run '^$$' -bench 'BenchmarkSubmit' -benchtime=1x -benchmem ./internal/service/

# The repo's benchmark (BENCHMARK.json, bench/) is a Go module of its
# own, so the root build, vet and test never compile it: vet it and run
# its short tests here, or an internal API change breaks it unnoticed
# until the next benchmark run.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# Boot the scheduling service on an ephemeral port, submit a job, poll
# it to completion, fetch its schedule and the metrics page, then drain:
# the end-to-end smoke of cmd/paradigmd.
smoke-paradigmd:
	$(GO) run ./cmd/paradigmd -addr 127.0.0.1:0 -smoke

# The service-level chaos gate: SIGKILL a paradigmd subprocess with
# acknowledged jobs in flight, restart it on the same checkpoint
# directory, and require every acknowledged job to finish byte-identical
# (by result digest) to an oracle-validated crash-free run. Two forms:
# jobs that solve, and resume from their WALs, and jobs that replay from
# the schedule cache, which have no WAL and ride on the journal alone.
# Then the job machine's model test under the race detector: seeded
# interleavings of submits, polls, drains, restarts and pool deaths
# against a reference model.
smoke-paradigmd-chaos:
	$(GO) test ./cmd/paradigmd/ -run '^TestChaosKillRestart(Hot)?$$' -count=1 -timeout 600s -v
	$(GO) test -race ./internal/service/ -run '^TestServiceModel$$' -count=1 -v

# The retention gate: 3000 jobs through one server, live heap growth
# bounded per job, first and last schedule still served.
smoke-paradigmd-memory:
	$(GO) test ./internal/service/ -run '^TestServiceMemoryFlat$$' -count=1 -v

# The multi-tenant service gate: tiered admission (gold tenant ahead of
# free, over-bucket tenant 429'd while others proceed), submit
# coalescing (one solve for concurrent identical submits), per-tenant
# isolation of job listings, and the fairness/cache counters on
# /metrics.
smoke-paradigmd-tenants:
	$(GO) test ./internal/service/ -run '^TestServiceTenantAdmission$$' -count=1 -v

# The cluster gate: the pool's rules (singleton and floor exemptions
# from fault injection, shrink-before-reject, blocking for capacity,
# retired processors never coming free) and the service-level cluster
# mode (partition deaths every 3rd placement, zero acknowledged jobs
# lost, oversized request degraded onto the shrunken pool instead of
# refused, coalescing off) under -race, then the service-level tests
# again with -v.
smoke-paradigmd-cluster:
	$(GO) test -race ./internal/service/ -run '^(TestServiceCluster|TestClusterPoolRules)' -count=1
	$(GO) test ./internal/service/ -run '^TestServiceCluster' -count=1 -v

# Build every example and run it in a temporary directory (some write
# trace files into their working directory): an example that no longer
# compiles, exits non-zero or fails one of its own checks fails the gate.
smoke-examples:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./examples/... || exit 1; \
	cd "$$dir" && for ex in *; do \
		echo "example $$ex"; \
		./$$ex > "$$ex.out" 2>&1 || { cat "$$ex.out"; exit 1; }; \
	done

# Run the pipeline CLI once per built-in machine (the trained path for
# cm5 and paragon, the analytical backend for the rest), once as the
# SPMD baseline on an analytical backend, and on a faulted Strassen run
# that recovers onto survivors and renders the residual schedule, on
# both trained machines and on an analytical one: a non-zero exit, a
# -metrics dump without its machine_info gauge, or a faulted run that
# does not print its recovery and a zero deviation from the sequential
# reference fails the gate. A checkpointed run on cm5 and on
# cm5-hetero8 is then resumed from its log, which must print the
# resuming line; and a run on an unknown machine must exit non-zero
# without leaving a checkpoint file.
smoke-cli:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/" ./cmd/paradigm ./cmd/machinespec || exit 1; \
	names="$$("$$dir/machinespec" -list | awk '{print $$1}')" && [ -n "$$names" ] || exit 1; \
	for m in $$names; do \
		echo "paradigm -machine $$m"; \
		"$$dir/paradigm" -program cmm -size 32 -procs 8 -metrics -machine "$$m" > "$$dir/out" 2>&1 || { cat "$$dir/out"; exit 1; }; \
		grep -q 'machine_info{' "$$dir/out" || { cat "$$dir/out"; echo "no machine_info gauge"; exit 1; }; \
	done; \
	echo "paradigm -program cmm -spmd -machine cm5-hetero8"; \
	"$$dir/paradigm" -program cmm -size 32 -procs 8 -spmd -machine cm5-hetero8 > "$$dir/out" 2>&1 || { cat "$$dir/out"; exit 1; }; \
	for m in cm5 paragon cm5-hetero8; do \
		echo "paradigm -program strassen -faults rand:42 -recover 2 -machine $$m"; \
		"$$dir/paradigm" -program strassen -size 32 -procs 8 -faults rand:42 -recover 2 -machine "$$m" > "$$dir/out" 2>&1 || { cat "$$dir/out"; exit 1; }; \
		grep -q '^recovery: survived' "$$dir/out" || { cat "$$dir/out"; echo "no recovery: survived line"; exit 1; }; \
		grep -q 'max |deviation| from sequential reference = 0$$' "$$dir/out" || { cat "$$dir/out"; echo "recovered run deviates from the sequential reference"; exit 1; }; \
	done; \
	for m in cm5 cm5-hetero8; do \
		echo "paradigm -checkpoint, then -resume, -machine $$m"; \
		"$$dir/paradigm" -program cmm -size 32 -procs 8 -machine "$$m" -checkpoint "$$dir/$$m.wal" > "$$dir/out" 2>&1 || { cat "$$dir/out"; exit 1; }; \
		"$$dir/paradigm" -program cmm -size 32 -procs 8 -machine "$$m" -checkpoint "$$dir/$$m.wal" -resume > "$$dir/out" 2>&1 || { cat "$$dir/out"; exit 1; }; \
		grep -q '^checkpoint: resuming .* from committed stages' "$$dir/out" || { cat "$$dir/out"; echo "resumed run restored no committed stages"; exit 1; }; \
	done; \
	echo "paradigm -machine bogus -checkpoint"; \
	if "$$dir/paradigm" -program cmm -machine bogus -checkpoint "$$dir/bogus.wal" > "$$dir/out" 2>&1; then cat "$$dir/out"; echo "unknown machine accepted"; exit 1; fi; \
	[ ! -e "$$dir/bogus.wal" ] || { echo "failed run left a checkpoint file"; exit 1; }
