#!/bin/sh
# Non-test Go line count per package: every *.go file that is not a
# _test.go file, not under a testdata directory and not in benchmark/
# (its own module, frozen by BENCHMARK.json). Lines are physical lines
# as wc -l counts them — comments and blanks included — so the number
# only moves when code does; ROADMAP tracks it as "net lines of non-test
# code" and it should go down.
#
#   scripts/loc.sh [dir]    per-package lines, largest first, then total
set -eu
cd "${1:-.}"
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' \
	! -path './benchmark/*' ! -path './.bench_build/*' -print |
	xargs wc -l |
	awk '$2 != "total" {
		pkg = $2; sub(/^\.\//, "", pkg)
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		lines[pkg] += $1; total += $1
	}
	END {
		for (p in lines) printf "%7d %s\n", lines[p], p | "sort -k1,1nr -k2"
		close("sort -k1,1nr -k2")
		printf "%7d total\n", total
	}'
