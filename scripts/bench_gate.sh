#!/usr/bin/env sh
# bench_gate.sh — CI crawl-benchmark smoke + allocation ceiling + metrics
# overhead gate.
#
# Runs the crawl-throughput gate (fails loudly if the crawl path breaks)
# and enforces two committed ceilings before anyone reads profile
# numbers:
#
#   - allocs/visit <= MAX_ALLOCS on the bare crawl (PERF.md records the
#     measured numbers the ceiling is derived from);
#   - allocs/op <= MAX_VISIT_HB_ALLOCS for one full-protocol HB visit on
#     a pooled runtime (BenchmarkVisit_HB), the visit the crawl-wide
#     average dilutes with non-HB pages;
#   - the metrics-attached crawl (full figure report accumulating on the
#     worker shards) costs at most MAX_METRICS_OVERHEAD_PCT of bare-crawl
#     time, measured by BenchmarkCrawl_MetricsOverhead. That benchmark
#     interleaves bare and metrics-attached crawls and compares per-side
#     *minimum* times — contention only ever inflates a deterministic
#     crawl, so per-attempt noise almost always inflates the measured
#     ratio (deflation would need the bare side contaminated in every one
#     of the interleaved samples while the metrics side gets a clean
#     window). Inflation failures are therefore retried up to
#     GATE_ATTEMPTS times; a real regression stays above the ceiling on
#     every attempt.
set -e

MAX_ALLOCS=${MAX_ALLOCS:-75}
MAX_VISIT_HB_ALLOCS=${MAX_VISIT_HB_ALLOCS:-151}
MAX_METRICS_OVERHEAD_PCT=${MAX_METRICS_OVERHEAD_PCT:-10}
MAX_OBS_OVERHEAD_PCT=${MAX_OBS_OVERHEAD_PCT:-5}
MAX_SWEEP_VARIANT_PCT=${MAX_SWEEP_VARIANT_PCT:-95}
GATE_ATTEMPTS=${GATE_ATTEMPTS:-3}
BASELINE=${BASELINE:-perf/bench.baseline.txt}

# The ceilings above are derived from the committed reference numbers,
# and any failure here is triaged against them (make benchstat). Refuse
# to gate against ceilings nobody can trace: fail up front, with
# instructions, when the baseline is missing.
if [ ! -f "$BASELINE" ]; then
    echo "bench gate: committed bench baseline $BASELINE is missing." >&2
    echo "bench gate: run 'make baseline' on the reference machine and commit the file before gating." >&2
    exit 1
fi

# metric_of <output> <benchmark> <metric>: pull one custom metric value
# off the benchmark's output line (name may carry a -GOMAXPROCS suffix).
metric_of() {
    echo "$1" | awk -v bench="$2" -v metric="$3" '
        $1 ~ "^"bench"(-[0-9]+)?$" {
            for (i = 1; i <= NF; i++) if ($i == metric) print $(i-1)
        }'
}

out=$(go test -run '^$' -bench '^BenchmarkCrawl_EndToEnd$' -benchtime 3x .)
echo "$out"

allocs=$(metric_of "$out" BenchmarkCrawl_EndToEnd allocs/visit)
if [ -z "$allocs" ]; then
    echo "bench gate: allocs/visit metric not found in benchmark output" >&2
    exit 1
fi
if ! awk -v a="$allocs" -v max="$MAX_ALLOCS" 'BEGIN { exit !(a <= max) }'; then
    echo "bench gate: allocs/visit $allocs exceeds ceiling $MAX_ALLOCS" >&2
    exit 1
fi
echo "bench gate: allocs/visit $allocs <= $MAX_ALLOCS"

out=$(go test -run '^$' -bench '^BenchmarkVisit_HB$' -benchtime 2000x -benchmem ./internal/crawler)
echo "$out" | grep -E '^Benchmark' || true
hb_allocs=$(metric_of "$out" BenchmarkVisit_HB allocs/op)
if [ -z "$hb_allocs" ]; then
    echo "bench gate: allocs/op metric not found in BenchmarkVisit_HB output" >&2
    exit 1
fi
if ! awk -v a="$hb_allocs" -v max="$MAX_VISIT_HB_ALLOCS" 'BEGIN { exit !(a <= max) }'; then
    echo "bench gate: HB visit allocs/op $hb_allocs exceeds ceiling $MAX_VISIT_HB_ALLOCS" >&2
    exit 1
fi
echo "bench gate: HB visit allocs/op $hb_allocs <= $MAX_VISIT_HB_ALLOCS"

# gate_ratio <benchmark> <metric> <ceiling> <label>: run a ratio-shaped
# benchmark up to GATE_ATTEMPTS times and require metric <= ceiling on
# some attempt (per-side-minimum benchmarks make noise inflationary, so
# retrying never lets a real regression through).
gate_ratio() {
    bench=$1; metric=$2; ceiling=$3; label=$4
    attempt=1
    while [ "$attempt" -le "$GATE_ATTEMPTS" ]; do
        out=$(go test -run '^$' -bench "^$bench\$" -benchtime 10x .)
        echo "$out" | grep -E '^Benchmark' || true
        val=$(metric_of "$out" "$bench" "$metric")
        if [ -z "$val" ]; then
            echo "bench gate: $metric metric not found in $bench output" >&2
            exit 1
        fi
        if awk -v v="$val" -v max="$ceiling" 'BEGIN { exit !(v <= max) }'; then
            echo "bench gate: $label ${val}% <= ${ceiling}% (attempt $attempt)"
            return 0
        fi
        echo "bench gate: attempt $attempt: $label ${val}% > ${ceiling}%" >&2
        attempt=$((attempt + 1))
    done
    echo "bench gate: $label exceeded ${ceiling}% on all $GATE_ATTEMPTS attempts" >&2
    exit 1
}

gate_ratio BenchmarkCrawl_MetricsOverhead overhead_pct "$MAX_METRICS_OVERHEAD_PCT" \
    "full-report metrics overhead"

# Observability gate: run telemetry plus a sampled trace plan must cost
# the crawl at most MAX_OBS_OVERHEAD_PCT of bare time. The untraced
# majority of visits rides the guarded-emission pattern (hbvet:
# obsguard), so a regression here means an unguarded recording call or
# a hot harvest path grew.
gate_ratio BenchmarkCrawl_ObsOverhead overhead_pct "$MAX_OBS_OVERHEAD_PCT" \
    "observability overhead"

# Shared-world sweep gate: a variant's marginal cost (crawl over the
# warm shared world) must stay below the fresh-run cost (world
# generation + cold crawl). A sweep that regresses into regenerating or
# re-warming per-variant state lands at ~100% or above.
gate_ratio BenchmarkSweep_WorldReuse variant_pct "$MAX_SWEEP_VARIANT_PCT" \
    "sweep variant marginal cost"
