#!/bin/sh
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ and runs it from the repository root with the
# arguments it was given. Everything the go command writes (build cache,
# temporary files, module cache, its own config and telemetry
# directories) is pointed into .bench_build/, so nothing is written
# outside the checkout.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local \
	go build -C "$root/benchmark" -o "$build/chbench" .
exec "$build/chbench" "$@"
