#!/usr/bin/env bash
# check.sh — the full CI gate: build, vet, race-enabled tests, and the
# determinism-invariant lint suite (cmd/cdivet). Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# One uncached, race-enabled pass over every package. Uncached because the
# fault-schedule, health/churn and pool suites guard byte-determinism and
# must run fresh even when nothing they import changed.
echo "== go test -race -count=1 ./..."
go test -race -count=1 ./...

echo "== cdivet ./..."
go run ./cmd/cdivet -sarif cdivet.sarif ./...

# The -j byte-identity smokes. Each run works in its own directory and
# writes its trace to the same relative path, so stdout (which names the
# trace file) and the Chrome trace itself must match byte for byte
# between -j 1 and -j 8.
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/reproduce" ./cmd/reproduce
mkdir "$smoke/j1" "$smoke/j8"
for exp in serving churn; do
  echo "== reproduce -exp $exp smoke (-j 1 vs -j 8: stdout and trace byte-identity)"
  for j in 1 8; do
    (cd "$smoke/j$j" && ../reproduce -exp "$exp" -j "$j" -trace "$exp.json" > "$exp.out")
  done
  [ -s "$smoke/j1/$exp.json" ] || { echo "$exp trace file is empty" >&2; exit 1; }
  for f in "$exp.out" "$exp.json"; do
    if ! cmp "$smoke/j1/$f" "$smoke/j8/$f"; then
      echo "$exp: $f differs between -j 1 and -j 8" >&2
      exit 1
    fi
  done
done

echo "== reproduce -exp pool smoke (-j byte-identity)"
pool_j1="$("$smoke/reproduce" -exp pool -j 1)"
pool_j8="$("$smoke/reproduce" -exp pool -j 8)"
if [ "$pool_j1" != "$pool_j8" ]; then
  echo "pool output differs between -j 1 and -j 8" >&2
  exit 1
fi

# Coverage-guided fuzz smoke of the segment-independent delivery order and
# of the pool's placement index against its linear-scan oracles. The
# recorded seeds always run as part of `go test` above; the search itself
# is opt-in locally (CI always runs its own 10s passes).
if [ "${CDI_FUZZ:-0}" = "1" ]; then
  echo "== fuzz smoke (FuzzSegmentedRun, 10s)"
  go test ./internal/sim -run xxx -fuzz FuzzSegmentedRun -fuzztime=10s
  echo "== fuzz smoke (FuzzPlacementIndex, 10s)"
  go test ./internal/pool -run xxx -fuzz FuzzPlacementIndex -fuzztime=10s
fi

echo "== bench.sh --smoke"
scripts/bench.sh --smoke

# Perf trajectory gate: diff the two most recent full benchmark recordings.
# Fails the build on a ns/op or allocs/op regression between them (see
# bench.sh for tolerances); the table also lands in bench_gate.txt for CI to
# archive. Skipped until two recordings exist.
echo "== bench.sh --gate (perf trajectory)"
if [ -e BENCH_2.json ]; then
  GATE_REPORT=bench_gate.txt scripts/bench.sh --gate
else
  echo "   fewer than two BENCH_<n>.json recordings; gate skipped"
fi

echo "check.sh: all gates green"
