GO ?= go

.PHONY: all build vet lint test race ci benchmark-module bench-smoke loc bench bench-pairs

all: ci

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite (fixture sources under
# testdata are the linter's inputs and stay as written; the git-ignored
# .bench_build/ holds other checkouts and build temporaries, as in
# scripts/loc.sh).
vet:
	$(GO) vet ./...
	@fmt=$$(find . -path ./.bench_build -prune -o -name '*.go' ! -path '*/testdata/*' -print | xargs gofmt -l); [ -z "$$fmt" ] || { echo "gofmt -l:"; echo "$$fmt"; exit 1; }

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
# parallel executor, wire server) plus the root package's integration
# tests.
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

# bench-smoke runs every DOP sweep, both bulk-load benchmarks
# (columnstore build, B+ tree bulk load), the wire result read and the
# DML on a clustered columnstore once (about 9 s). It checks no
# threshold: it is there so that a query a sweep runs which the engine
# now rejects, a broken result path over the wire, a DML statement on a
# clustered columnstore that changes the wrong number of rows, or a
# benchmark that no longer compiles or runs, fails CI, not the next
# `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Scaling|ColumnstoreBuild|BTreeBulkLoad|WireResult|CCIDML' -benchtime 1x .

# ci is the tier-1 gate referenced from ROADMAP.md. It runs every step
# in order, whether or not an earlier one failed, so one failure hides
# no other; it prints `ci: <step> FAILED` for each step that fails and
# each step's wall time after it, so the CI log records what the gate
# costs, and exits non-zero at the end if any step failed. No time is
# gated (engine wall-clock questions go to `sh benchmark/run.sh`,
# BENCHMARK.json). Its last step prints `make loc`, so every CI log
# carries the tracked line count; the number is reported, not gated.
CI_STEPS := vet lint build test race benchmark-module bench-smoke loc

ci:
	@failed=0; for step in $(CI_STEPS); do \
		start=$$(date +%s%N); \
		$(MAKE) --no-print-directory $$step || { echo "ci: $$step FAILED"; failed=1; }; \
		end=$$(date +%s%N); \
		echo "ci: $$step took $$(( (end - start) / 1000000 )) ms"; \
	done; \
	[ $$failed -eq 0 ]

# loc prints non-test Go lines per package and in total (benchmark/
# excluded): the number ROADMAP tracks and a simplification PR quotes.
# `make loc BASE=<rev>` prints each package as base → tree (Δ), the
# base counted from `git archive <rev>` in a temporary directory.
loc:
	@./scripts/loc.sh $(if $(BASE),-base $(BASE))

# bench runs every micro-benchmark (quick-scale experiments, core
# structures, the DOP sweep, the colstore kernel sweep) on this machine.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# bench-pairs runs N alternating base/change pairs of the wall-clock
# benchmark (scripts/bench_pairs.sh): base built from `git archive
# BASE`, change from the working tree, then `-compare base change`.
# Not part of ci: one pair of full runs takes minutes.
N ?= 3
SEED ?= 1
bench-pairs:
	@[ -n "$(BASE)" ] || { echo "usage: make bench-pairs BASE=<rev> [N=3] [WORKLOAD=<name>] [SEED=1]"; exit 1; }
	./scripts/bench_pairs.sh -base $(BASE) -n $(N) -seed $(SEED) $(if $(WORKLOAD),-workload $(WORKLOAD))
