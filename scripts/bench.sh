#!/usr/bin/env bash
# bench.sh — run the table/figure benchmarks with -benchmem and record the
# results as machine-readable JSON, one file per invocation:
#
#   scripts/bench.sh                 # full run -> BENCH_<n>.json (n auto-increments)
#   scripts/bench.sh -bench Sim      # restrict the benchmark pattern
#   scripts/bench.sh --smoke         # 1-iteration sanity pass used by check.sh;
#                                    # validates the pipeline, writes nothing
#   scripts/bench.sh --gate [NEW OLD]  # regression gate: diff two recorded
#                                    # runs (default: newest vs previous),
#                                    # exit 1 on ns/op or allocs/op regression
#
# Each BENCH_<n>.json is an object with host metadata plus one entry per
# benchmark: {name, ns_per_op, bytes_per_op, allocs_per_op}. The sequence of
# files is the repo's perf trajectory: compare allocs_per_op of BenchmarkSim*
# across files to see the effect of engine changes (stdlib toolchain only —
# the parse is plain awk, no external JSON tools).
#
# Gate tolerances (env, all optional):
#   GATE_NS_TOL=0.40      fractional ns/op growth tolerated (timings are noisy
#                         on shared runners, so the default is deliberately
#                         loose — the gate is for order-of-magnitude slips)
#   GATE_ALLOC_TOL=0.10   fractional allocs/op growth tolerated (allocation
#                         counts are deterministic, so this is tight)
#   GATE_ALLOC_SLACK=16   absolute allocs/op grace on top of the fraction, so
#                         a 3->5 allocs/op jitter in a tiny benchmark does not
#                         read as a 66% regression
#   GATE_ALLOC_SKIP=re    benchmarks matching this regex skip the allocs/op
#                         check (ns/op is still gated). Defaults to the lint
#                         suite's self-benchmark: its allocation count scales
#                         with the size of the repo it analyzes, so every PR
#                         that adds source moves it by design
#   GATE_WAIVE=re         one-time acknowledged steps: the regex is matched
#                         against "<benchmark>@<new-recording-basename>", and
#                         matches are reported as "waived" instead of failing.
#                         Pinning the recording name makes the waiver
#                         self-expiring — once the next BENCH_<n>.json becomes
#                         the gate's NEW side the pin no longer matches, and
#                         that comparison starts from the post-step baseline
#                         anyway. Use it when a PR deliberately changes what a
#                         benchmark measures; leave a comment at the call site
#                         saying why the step is intended
#   GATE_REPORT=path      also write the per-benchmark diff table to path
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='.'
benchtime=''
smoke=0
gate=0
gate_new=''
gate_old=''
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke)
            smoke=1
            pattern='BenchmarkSimEngineEvents'
            benchtime='1x'
            ;;
        --gate)
            gate=1
            if [ $# -ge 3 ]; then
                gate_new="$2"
                gate_old="$3"
                shift 2
            elif [ $# -ge 2 ]; then
                echo "bench.sh: --gate takes zero or two file arguments (NEW OLD)" >&2
                exit 2
            fi
            ;;
        -bench)
            shift
            pattern="$1"
            ;;
        -benchtime)
            shift
            benchtime="$1"
            ;;
        *)
            echo "bench.sh: unknown argument $1" >&2
            exit 2
            ;;
    esac
    shift
done

if [ "$gate" = 1 ]; then
    if [ -z "$gate_new" ]; then
        n=1
        while [ -e "BENCH_${n}.json" ]; do
            n=$((n + 1))
        done
        if [ "$n" -lt 3 ]; then
            echo "bench.sh --gate: need at least two BENCH_<n>.json files (run scripts/bench.sh twice)" >&2
            exit 2
        fi
        gate_new="BENCH_$((n - 1)).json"
        gate_old="BENCH_$((n - 2)).json"
    fi
    for f in "$gate_new" "$gate_old"; do
        [ -r "$f" ] || { echo "bench.sh --gate: cannot read $f" >&2; exit 2; }
    done

    report="$(mktemp)"
    trap 'rm -f "$report"' EXIT
    set +e
    awk -v ns_tol="${GATE_NS_TOL:-0.40}" \
        -v alloc_tol="${GATE_ALLOC_TOL:-0.10}" \
        -v alloc_slack="${GATE_ALLOC_SLACK:-16}" \
        -v alloc_skip="${GATE_ALLOC_SKIP:-^BenchmarkCdivetModule$}" \
        -v waive="${GATE_WAIVE:-}" -v newbase="$(basename "$gate_new")" \
        -v newfile="$gate_new" -v oldfile="$gate_old" '
    function field(line, key,    v) {
        # Pull "key": value out of one benchmark object line; the files are
        # produced by this script, so the layout is fixed and a regex parse
        # is safe.
        if (!match(line, "\"" key "\": \"?[^,\"}]+")) return ""
        v = substr(line, RSTART, RLENGTH)
        sub("^\"" key "\": \"?", "", v)
        return v
    }
    /"name":/ {
        name = field($0, "name")
        if (name == "") next
        if (FILENAME == oldfile) {
            ons[name] = field($0, "ns_per_op")
            oal[name] = field($0, "allocs_per_op")
            if (!(name in oseen)) { oseen[name] = 1; onames[++on] = name }
        } else {
            nns[name] = field($0, "ns_per_op")
            nal[name] = field($0, "allocs_per_op")
            if (!(name in nseen)) { nseen[name] = 1; nnames[++nn] = name }
        }
    }
    function pct(old, new) {
        if (old == 0) return (new == 0 ? "+0.0%" : "n/a")
        return sprintf("%+.1f%%", (new - old) * 100.0 / old)
    }
    END {
        printf "bench gate: %s vs %s (ns tol +%.0f%%, allocs tol +%.0f%% or +%d)\n", \
            newfile, oldfile, ns_tol * 100, alloc_tol * 100, alloc_slack
        bad = 0
        for (i = 1; i <= on; i++) {
            name = onames[i]
            if (!(name in nseen)) {
                printf "  WARNING %-52s dropped from %s\n", name, newfile
                continue
            }
            verdict = "ok"
            waived = (waive != "" && (name "@" newbase) ~ waive)
            if (nns[name] + 0 > ons[name] * (1 + ns_tol)) {
                verdict = "REGRESSION(ns/op)"
                if (!waived) bad = 1
            }
            if (alloc_skip != "" && name ~ alloc_skip) {
                verdict = verdict " (allocs ungated: GATE_ALLOC_SKIP)"
            } else if (nal[name] + 0 > oal[name] * (1 + alloc_tol) + alloc_slack) {
                verdict = (verdict == "ok") ? "REGRESSION(allocs/op)" : "REGRESSION(ns/op,allocs/op)"
                if (!waived) bad = 1
            }
            if (waived && verdict != "ok")
                verdict = verdict " -- waived(GATE_WAIVE)"
            printf "  %-52s ns/op %12.0f -> %12.0f (%7s)  allocs/op %6d -> %6d (%7s)  %s\n", \
                name, ons[name], nns[name], pct(ons[name] + 0, nns[name] + 0), \
                oal[name], nal[name], pct(oal[name] + 0, nal[name] + 0), verdict
        }
        for (i = 1; i <= nn; i++) {
            name = nnames[i]
            if (!(name in oseen))
                printf "  %-52s new in %s\n", name, newfile
        }
        if (on == 0) {
            print "bench.sh --gate: no benchmarks parsed from " oldfile > "/dev/stderr"
            exit 2
        }
        exit bad
    }' "$gate_old" "$gate_new" > "$report"
    status=$?
    set -e
    cat "$report"
    if [ -n "${GATE_REPORT:-}" ]; then
        cp "$report" "$GATE_REPORT"
    fi
    if [ "$status" -eq 1 ]; then
        echo "bench.sh --gate: perf regression against $gate_old (see table above)" >&2
    fi
    exit "$status"
fi

raw="$(mktemp)"
if [ "$smoke" = 1 ]; then
    out="$(mktemp)"
    trap 'rm -f "$raw" "$out"' EXIT
else
    trap 'rm -f "$raw"' EXIT
    n=1
    while [ -e "BENCH_${n}.json" ]; do
        n=$((n + 1))
    done
    out="BENCH_${n}.json"
fi

args=(-run '^$' -bench "$pattern" -benchmem)
if [ -n "$benchtime" ]; then
    args+=(-benchtime "$benchtime")
fi
echo "== go test ${args[*]} ." >&2
go test "${args[@]}" . | tee "$raw" >&2

# Benchmark lines look like:
#   BenchmarkSimEngineEvents-4   123456   987 ns/op   0 B/op   0 allocs/op
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v goos="$(go env GOOS)" -v goarch="$(go env GOARCH)" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"benchmarks\": [", date, goos, goarch
    count = 0
}
/^Benchmark/ && /ns\/op/ {
    name = $1
    # go test appends -<GOMAXPROCS> to the name when it is not 1. Strip it
    # so recordings from hosts with different core counts share names and
    # the gate compares them instead of reporting every row as dropped.
    sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op")     ns = $(i - 1)
        if ($i == "B/op")      bytes = $(i - 1)
        if ($i == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    if (bytes == "") bytes = 0
    if (allocs == "") allocs = 0
    if (count++) printf ","
    printf "\n    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", name, ns, bytes, allocs
}
END {
    if (count == 0) { print "bench.sh: no benchmark lines parsed" > "/dev/stderr"; exit 1 }
    printf "\n  ]\n}\n"
}' "$raw" > "$out"

if [ "$smoke" = 1 ]; then
    # The smoke pass only proves the run+parse pipeline: the file must be
    # non-empty, syntactically sane, and contain the engine benchmark.
    grep -q '"name": "BenchmarkSimEngineEvents' "$out"
    grep -q '"allocs_per_op":' "$out"
    echo "bench.sh --smoke: pipeline ok" >&2
else
    echo "bench.sh: wrote $out ($(grep -c '"name"' "$out") benchmarks)" >&2
fi
