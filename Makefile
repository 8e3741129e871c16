GO ?= go

.PHONY: all build vet lint test race ci benchmark-module loc bench benchsmoke bench-scaling bench-htap bench-wire

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# bin/hybridlint rebuilds only when the framework, an analyzer, the
# driver, or the module definition changes; CI caches the binary on the
# same inputs. Fixture sources under testdata are excluded — they are
# the linter's test data, not its code.
LINT_SRCS := $(shell find cmd/hybridlint internal/analysis -name '*.go' -not -path 'internal/analysis/testdata/*')

bin/hybridlint: $(LINT_SRCS) go.mod
	$(GO) build -o bin/hybridlint ./cmd/hybridlint

# lint runs the project's invariant multichecker (see ANALYSIS.md) over
# every package. It exits non-zero on any diagnostic not suppressed by
# a `//lint:ignore <analyzer> <reason>` comment, then gates the
# suppression count against the committed LINT_BUDGET. The elapsed time
# is printed so CI logs track the linter's cost as the suite grows.
lint: bin/hybridlint
	@mkdir -p build
	@start=$$(date +%s%N); \
	./bin/hybridlint -counts build/lint-counts.txt ./...; lint_status=$$?; \
	end=$$(date +%s%N); \
	echo "lint: hybridlint ./... took $$(( (end - start) / 1000000 )) ms"; \
	[ $$lint_status -eq 0 ]
	./scripts/check_lint_budget.sh build/lint-counts.txt LINT_BUDGET

test:
	$(GO) test ./...

# Race-detector pass over every package: the internal packages with
# concurrent surfaces (metrics registry, engine statement locking,
# parallel executor) plus the root package, whose integration tests
# and parallel benchmarks otherwise never run under -race. Benchmarks
# stay in benchsmoke (they time out under the race detector).
race:
	$(GO) test -race ./...

# benchmark/ is its own module (BENCHMARK.json freezes it), so the
# ./... patterns above never compile it: a PR that changes API it uses
# (exec.Execute, engine.ExecOptions, optimizer.Optimize, ...) must see
# it break here, not when the benchmark is next run. The self-test takes
# about 2 s; it is not run under -race (66 s).
benchmark-module:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# ci is the tier-1 gate referenced from ROADMAP.md. benchsmoke runs the
# parallel-executor benchmarks for one iteration so the morsel dispatch
# and gather paths are exercised even when no test opts into them.
ci: vet lint build test race benchmark-module benchsmoke

# loc prints non-test Go lines per package and in total (benchmark/
# excluded): the number ROADMAP tracks and a simplification PR quotes.
loc:
	@./scripts/loc.sh

bench: bench-wire
	$(GO) test -bench=. -benchmem -run '^$$' ./...
	BENCH_JSON=$(CURDIR)/BENCH_parallel.json BENCH_KERNELS_JSON=$(CURDIR)/BENCH_kernels.json \
		$(GO) test -bench 'BenchmarkParallel(Scan|Agg)|BenchmarkKernel(RLE|Dict)|BenchmarkQueryStoreCapture' -run '^$$' .

# bench-scaling sweeps DOP 1/2/4/8 over the four parallel shapes and
# writes BENCH_scaling.json: measured speedup vs DOP 1 next to the
# vclock model's PredictedSpeedup for the same query. GOMAXPROCS is
# raised to 8 so the sweep uses every core on machines where Go would
# default lower; on boxes with fewer physical cores the executor still
# clamps to NumCPU and the artifact carries a warning saying so.
bench-scaling:
	GOMAXPROCS=8 BENCH_SCALING_JSON=$(CURDIR)/BENCH_scaling.json \
		$(GO) test -bench 'BenchmarkScaling(Scan|Agg|Join|TopN)' -run '^$$' .

# bench-htap runs the CH-style mixed workload (sustained writes
# interleaved with columnstore reads) under four compaction regimes —
# full compaction, background tuple mover, no compaction, synchronous
# inline — and writes BENCH_htap.json. One iteration per arm: each
# iteration is a complete fixed-size workload and the reported numbers
# are deterministic virtual times, so repetition adds nothing.
bench-htap:
	BENCH_HTAP_JSON=$(CURDIR)/BENCH_htap.json \
		$(GO) test -bench 'BenchmarkHTAPMixed' -benchtime 1x -run '^$$' .

# bench-wire runs the closed-loop wire-protocol load benchmark against
# a live hybridd serving stack on a loopback socket and writes
# BENCH_wire.json: single-client p50/p99 overhead vs the in-process
# path, then 64 concurrent clients against an admission limit of 4 with
# byte-for-byte result-identity checks. One iteration: each is a
# complete fixed-size closed loop.
bench-wire:
	BENCH_WIRE_JSON=$(CURDIR)/BENCH_wire.json \
		$(GO) test -bench 'BenchmarkWireLoad' -benchtime 1x -run '^$$' .

# benchsmoke also runs the kernel-vs-naive benchmarks for one iteration:
# each iteration asserts both paths select the identical row set, so the
# differential check runs in CI without benchmark timing. The query-
# store capture benchmark likewise asserts fingerprint stability across
# serial and parallel runs each iteration. The scaling sweep rides
# along for one iteration, and BENCH_GUARD=1 turns the recorded points
# into a regression gate: any DOP the machine can schedule that runs
# slower than 0.9x serial fails the build (see benchGuardFailures in
# bench_parallel_test.go). The HTAP mixed-workload arms are gated on
# their deterministic virtual-time ratios (see htapGuardFailures in
# bench_htap_test.go): background-mover reads within 1.5x of the
# compacted baseline, no-compaction reads materially slower (the
# delta-scan-tax canary), and no inline-compaction write spike while
# a mover is attached. The wire load benchmark rides along too: its
# gates (see wireGuardFailures in bench_wire_test.go) bound wire p50 to
# a small constant factor of in-process latency and fail on any client
# error, dropped/duplicated row, or an admission controller that never
# engaged under the 64-client overload.
benchsmoke:
	BENCH_GUARD=1 $(GO) test -bench 'BenchmarkParallel(Scan|Agg)|BenchmarkScaling(Scan|Agg|Join|TopN)|BenchmarkKernel(RLE|Dict)|BenchmarkQueryStoreCapture|BenchmarkHTAPMixed|BenchmarkWireLoad' -benchtime 1x -run '^$$' .
