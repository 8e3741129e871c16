#!/bin/sh
# Non-test Go line count per package: every *.go file that is not a
# _test.go file, not under a testdata directory and not in benchmark/
# (its own module, frozen by BENCHMARK.json). Lines are physical lines
# as wc -l counts them — comments and blanks included — so the number
# only moves when code does; ROADMAP tracks it as "net lines of non-test
# code" and it should go down.
#
#   scripts/loc.sh [dir]      per-package lines, largest first, then total
#   scripts/loc.sh -base REV  the same as "base → tree (Δ)": REV counted
#                             from `git archive REV` in a temporary
#                             directory, the tree as it is checked out
set -eu
if [ "${1:-}" = -base ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	mkdir "$tmp/base"
	git archive "$2" | tar -x -C "$tmp/base"
	"$0" "$tmp/base" >"$tmp/base.txt"
	"$0" >"$tmp/tree.txt"
	awk 'NR == FNR { base[$2] = $1; seen[$2] = 1; next }
		{ tree[$2] = $1; seen[$2] = 1 }
		END {
			for (p in seen) if (p != "total")
				printf "%7d → %7d (%+d) %s\n", base[p], tree[p], tree[p] - base[p], p | "sort -k3,3nr -k5"
			close("sort -k3,3nr -k5")
			printf "%7d → %7d (%+d) total\n", base["total"], tree["total"], tree["total"] - base["total"]
		}' "$tmp/base.txt" "$tmp/tree.txt"
	exit
fi
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
