#!/usr/bin/env bash
# run.sh — build the benchmark inside the checkout and run it.
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/: the Go build cache, temporary files, the
# binary and the traced runs' artifacts. The toolchain never goes to the
# network; the benchmark needs nothing outside the repository.
set -euo pipefail

root=$PWD
bench=$root/_perfbench
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

go -C "$bench" build -o "$out/bin/perfbench" .

# The exec time, so that setup_s counts process start and loading.
PERFBENCH_T0=$EPOCHREALTIME exec "$out/bin/perfbench" "$@"
