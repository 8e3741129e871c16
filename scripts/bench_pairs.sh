#!/bin/sh
# Alternating base/change pairs of the wall-clock benchmark. Builds the
# benchmark twice — from `git archive REV` and from the working tree —
# each into its own directory under .bench_build/pairs/, with
# benchmark/run.sh's discipline (the go command's cache, temporary,
# module and config directories all under .bench_build/). Then runs N
# pairs; the side that runs first alternates, base first in odd pairs.
# Each side runs from its own tree root and appends to its own result
# file (.bench_build/pairs/base.json, change.json; each run's output in
# a .log beside them). It ends by printing the benchmark's -compare of
# the two files, whose exit status it returns.
#
#   scripts/bench_pairs.sh -base REV [-n N] [-workload W] [-seed S]
set -eu
base='' n=3 workload='' seed=1
while [ $# -gt 0 ]; do
	case $1 in
	-base) base=$2 ;;
	-n) n=$2 ;;
	-workload) workload=$2 ;;
	-seed) seed=$2 ;;
	*)
		echo "bench_pairs: unknown argument $1" >&2
		exit 1
		;;
	esac
	shift 2
done
[ -n "$base" ] || {
	echo "usage: scripts/bench_pairs.sh -base REV [-n N] [-workload W] [-seed S]" >&2
	exit 1
}
root=$(pwd)
build="$root/.bench_build"
pairs="$build/pairs"
rm -rf "$pairs"
mkdir -p "$pairs/base/tree" "$pairs/change" "$build/tmp"
git archive "$base" | tar -x -C "$pairs/base/tree"
# The base tree sits inside this checkout, so VCS stamping would label
# its binary with the working tree's commit; it is built unstamped.
for side in base change; do
	tree=$root vcs=auto
	[ "$side" = base ] && tree="$pairs/base/tree" vcs=false
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local \
		go build -C "$tree/benchmark" -buildvcs=$vcs -o "$pairs/$side/chbench" .
done

i=1
while [ "$i" -le "$n" ]; do
	order="base change"
	[ $((i % 2)) -eq 0 ] && order="change base"
	for side in $order; do
		tree=$root
		[ "$side" = base ] && tree="$pairs/base/tree"
		echo "bench_pairs: pair $i/$n, $side" >&2
		(cd "$tree" && "$pairs/$side/chbench" -seed "$seed" ${workload:+-workload "$workload"} \
			-out "$pairs/$side.json") >"$pairs/$side.$i.log"
	done
	i=$((i + 1))
done
exec "$pairs/change/chbench" -compare "$pairs/base.json" "$pairs/change.json"
