# Build and verification entry points. `make ci` is the full gate: format
# check, vet, build, race-enabled tests, the schedule-determinism runs, the
# seeded fault-matrix smoke, and a benchmark comparison against
# BENCH_baseline.json that fails on a >15% geomean ns/op regression.

GO ?= go

.PHONY: all build fmt vet test race determinism faultcheck tracecheck schedcheck coldcheck tunecheck servecheck alloccheck fuzz-regress bench-stat bench-snapshot bench-compare bench-pipeline bench-swar bench-obs bench-sched bench-artifact bench-tune bench-serve bench-alloc ci

all: build

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Schedule-determinism gate under the race detector: the simulator Stats
# regression test, the kernels' cooperative-vs-legacy Stats parity, the
# CPU-vs-baseline equivalence tests and the metrics-parity tests, three runs
# each at GOMAXPROCS=1, 2 and 4, so a result that depends on goroutine
# scheduling fails here instead of only on a wider or busier host.
determinism:
	@set -e; for p in 1 2 4; do \
		echo "determinism: GOMAXPROCS=$$p"; \
		GOMAXPROCS=$$p $(GO) test -race -count 3 ./internal/search/ -run 'TestSimStatsScheduleDeterministic|TestEnginesMatchBaseline|TestEnginesEquivalentProperty|TestSWARPathsEquivalence|TestSWARFinderMatchesScalar|TestPackedEngine|FuzzSWARMismatch|TestMetricsAgreeWithProfile|TestMultiSYCLMergeParity|TestMultiSYCLSchedMetricsParity'; \
		GOMAXPROCS=$$p $(GO) test -race -count 3 ./internal/kernels/ -run 'TestCooperativeMatchesLegacy'; \
		GOMAXPROCS=$$p $(GO) test -race -count 3 ./internal/gpu/ -run 'TestPhasesStatsParity'; \
	done

# Seeded fault-matrix smoke: replay the deterministic fault schedules
# (engines x sites, watchdog, corruption re-verification, quarantine, CLI
# recovery) fresh rather than from the test cache.
faultcheck:
	$(GO) test ./internal/search/ -count 1 -run 'TestFaultMatrix|TestFaultDeterminism|TestWatchdogReapsHungKernel|TestCorruptionReverification|TestQuarantineReportsPartial'
	$(GO) test ./cmd/casoffinder/ -count 1 -run 'TestRunFault'

# Observability smoke: a seeded fault run through -trace/-metrics must leave
# a parseable Chrome trace and a metrics snapshot that agrees with the
# profile, and the trace must cover every chunk's stage/launch/drain spans.
tracecheck:
	$(GO) test ./cmd/casoffinder/ -count 1 -run 'TestTraceMetricsSmoke'
	$(GO) test ./internal/search/ -count 1 -run 'TestTraceCovers|TestMetricsAgreeWithProfile'

# Work-stealing scheduler smoke under the race detector: the deque/steal/
# eviction machinery, the scheduler-backed MultiSYCL determinism contract
# (fleet output byte-identical to a single device, including seeded-fault
# eviction runs) and the -devices CLI path.
schedcheck:
	$(GO) test -race -count 1 ./internal/sched/
	$(GO) test -race -count 1 ./internal/search/ -run 'TestMultiSYCL'
	$(GO) test -race -count 1 ./cmd/casoffinder/ -run 'TestRunFleet|TestParseFleet'

# Persistent-artifact smoke under the race detector: the codec round-trip
# and corruption refusals, the duplicate-name/single-file load contracts,
# the five-engine FASTA-vs-artifact equivalence matrix with the corrupt-
# shard rejections, and the cold-start acceptance ratio (first hit from a
# warm artifact must come >= 10x faster than from FASTA parse+pack).
coldcheck:
	$(GO) test -race -count 1 ./internal/genome/ -run 'TestArtifact|TestBuildArtifact|TestLoadDir'
	$(GO) test -race -count 1 ./internal/search/ -run 'TestArtifact|TestBuildArtifact'
	$(GO) test -count 1 -run 'TestColdStartRatio' .

# Autotuner smoke: the tune package's determinism/Table X/calibration
# contracts, the engine wiring under the race detector (tuned runs stay
# byte-identical to fixed-variant runs, including with calibration), the
# -variant auto / -autotune CLI paths, and the root within-5%-of-best-fixed
# acceptance gate.
tunecheck:
	$(GO) test -count 1 ./internal/tune/
	$(GO) test -race -count 1 ./internal/search/ -run 'TestAuto|TestForcedVariant|TestMultiAuto'
	$(GO) test -race -count 1 ./cmd/casoffinder/ -run 'TestRunAuto|TestRunAutotune|TestParseVariant'
	$(GO) test -count 1 -run 'TestAutotuneWithinBestFixed' .

# Daemon smoke under the race detector: admission control (quota, shed,
# deadline), cross-request coalescing byte-identity (clean and under a
# seeded device-lost fault), graceful drain, panic isolation, the
# casoffinderd end-to-end boot/search/shutdown cycle, and the CLI's
# -timeout/-format satellites.
servecheck:
	$(GO) test -race -count 1 ./internal/serve/
	$(GO) test -race -count 1 ./cmd/casoffinderd/
	$(GO) test -race -count 1 ./cmd/casoffinder/ -run 'TestRunFormat|TestRunTimeout'

# Dynamic-arena smoke under the race detector: the page allocator's claim/
# grow/decode unit contracts, the dense-region engine matrix (overflow-retry
# fires, hits stay byte-identical to worst-case provisioning and the CPU
# reference), the dense run under seeded faults, the zero-body launch
# regression, the pipeline's overflow-relaunch budget, and the root >=2x
# provisioning-reduction acceptance gate.
alloccheck:
	$(GO) test -race -count 1 ./internal/gpu/alloc/
	$(GO) test -race -count 1 ./internal/search/ -run 'TestDenseCandidateRegionMatrix|TestDenseRegionSeededFaults|TestZeroBodyChunkFind'
	$(GO) test -race -count 1 ./internal/pipeline/ -run 'TestOverflowRelaunches|TestOverflowBudgetExhausted'
	$(GO) test -race -count 1 -run 'TestArenaProvisioningRatio' .

# Fuzz regression mode: the seed corpora (f.Add entries) replay on every
# plain `go test`; this target additionally fuzzes each target briefly to
# grow the corpus and shake out fresh inputs. Not part of `ci` — fuzzing is
# open-ended by nature.
FUZZTIME ?= 10s
fuzz-regress:
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzSWARMismatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/search/ -run '^$$' -fuzz '^FuzzParseInput$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzReadFASTA$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzWordView$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/genome/ -run '^$$' -fuzz '^FuzzPack$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gpu/alloc/ -run '^$$' -fuzz '^FuzzArenaDecode$$' -fuzztime $(FUZZTIME)

# Run the tracked micro-benchmarks briefly and print the parsed results
# without touching the committed snapshot.
bench-stat:
	$(GO) run ./cmd/benchsnap -stat -benchtime 20x

# Re-record BENCH_baseline.json (longer benchtime for stable numbers).
bench-snapshot:
	$(GO) run ./cmd/benchsnap -bench 'LaunchOverhead|SimLaunch|CPUEngine$$' -benchtime 200x

# Regression gate: rerun the tracked benchmarks and fail when the geomean
# ns/op ratio against the committed baseline exceeds 1.15x. The second line
# gates the SWAR benchmarks against their own snapshot (the baseline
# predates them and benchmarks absent from a snapshot are ignored). The
# cold-start pair is load-bound and inherently noisier (disk cache, chunk
# cancellation timing), so its gate runs at 1.3x — still far under the ~2x
# jump that losing the mmap load or the PAM-shard path would cost.
bench-compare:
	$(GO) run ./cmd/benchsnap -compare BENCH_baseline.json -benchtime 20x
	$(GO) run ./cmd/benchsnap -compare BENCH_swar.json -bench 'SWARMismatch|MultiPatternBatch' -pkgs . -benchtime 20x
	$(GO) run ./cmd/benchsnap -compare BENCH_obs.json -bench 'StreamVsRun|ObsOverhead' -pkgs . -benchtime 20x
	$(GO) run ./cmd/benchsnap -compare BENCH_sched.json -bench 'WorkStealing' -pkgs . -benchtime 20x
	$(GO) run ./cmd/benchsnap -compare BENCH_artifact.json -bench 'ColdStart' -pkgs . -benchtime 20x -threshold 1.3
	$(GO) run ./cmd/benchsnap -compare BENCH_tune.json -bench 'Autotune' -pkgs . -benchtime 20x -threshold 1.3
	$(GO) run ./cmd/benchsnap -compare BENCH_serve.json -bench 'Coalesce' -pkgs ./internal/serve -benchtime 20x -threshold 1.3
	$(GO) run ./cmd/benchsnap -compare BENCH_alloc.json -bench 'ArenaProvisioning' -pkgs . -benchtime 20x -threshold 1.3

# Record the post-pipeline snapshot (includes BenchmarkStreamVsRun).
bench-pipeline:
	$(GO) run ./cmd/benchsnap -o BENCH_pipeline.json -benchtime 200x

# Record the SWAR snapshot (BenchmarkSWARMismatch, BenchmarkMultiPatternBatch).
bench-swar:
	$(GO) run ./cmd/benchsnap -o BENCH_swar.json -bench 'SWARMismatch|MultiPatternBatch' -pkgs . -benchtime 200x

# Record the observability snapshot (BenchmarkStreamVsRun with the obs hooks
# compiled in, plus the off/traced overhead pair). The off rows are the
# <=2%-overhead contract for the disabled path.
bench-obs:
	$(GO) run ./cmd/benchsnap -o BENCH_obs.json -bench 'StreamVsRun|ObsOverhead' -pkgs . -benchtime 200x

# Record the scheduler snapshot (BenchmarkWorkStealing: static split vs
# work-stealing on homogeneous/heterogeneous/straggler fleets). The straggler
# steal-vs-static ratio is the scheduler's headline speedup.
bench-sched:
	$(GO) run ./cmd/benchsnap -o BENCH_sched.json -bench 'WorkStealing' -pkgs . -benchtime 20x

# Record the artifact snapshot (BenchmarkColdStart: FASTA parse+pack vs
# warm-artifact mmap load, each to first hit). The fasta/artifact ratio is
# the persistent-artifact headline speedup.
bench-artifact:
	$(GO) run ./cmd/benchsnap -o BENCH_artifact.json -bench 'ColdStart' -pkgs . -benchtime 100x

# Record the serve snapshot (BenchmarkCoalesce: N concurrent single-guide
# requests through one coalesced genome pass vs one pass each). The
# coalesced/independent ratio is the daemon's headline batching win; gated
# at 1.3x with the other wall-time-noisy simulator rows.
bench-serve:
	$(GO) run ./cmd/benchsnap -o BENCH_serve.json -bench 'Coalesce' -pkgs ./internal/serve -benchtime 50x

# Record the autotuner snapshot (BenchmarkAutotune: tuned vs best/worst
# fixed (variant, work-group size) per device; the model's ms/chunk
# prediction rides along as a custom metric). Gated at 1.3x like the
# cold-start pair — the simulator rows are wall-time noisy; the tuned row
# regressing past that against best-fixed means the Select path got slow.
bench-tune:
	$(GO) run ./cmd/benchsnap -o BENCH_tune.json -bench 'Autotune' -pkgs . -benchtime 50x

# Record the arena snapshot (BenchmarkArenaProvisioning: the dense-region
# genome under pinned worst-case arenas vs density-driven provisioning per
# backend; arena-bytes/overflow-retries/page-claims ride along as custom
# metrics). The worst-case/dynamic arena-bytes ratio is the allocator's
# headline >=2x staged-bytes reduction, gated exactly by
# TestArenaProvisioningRatio in alloccheck.
bench-alloc:
	$(GO) run ./cmd/benchsnap -o BENCH_alloc.json -bench 'ArenaProvisioning' -pkgs . -benchtime 50x

ci: fmt vet build race determinism faultcheck tracecheck schedcheck coldcheck tunecheck servecheck alloccheck bench-compare
