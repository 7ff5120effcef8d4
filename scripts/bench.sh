#!/usr/bin/env bash
# Run the root benchmark suite and emit BENCH_core.json (benchmark name →
# ns/op, allocs/op, bytes/op, plus any custom metric like
# BenchmarkSweepCancel's cancel_ns_per_op: time-to-return after cancelling
# a mid-flight sweep) so successive PRs leave a comparable perf trajectory
# in the repo. The suite covers the engine (input pass, RunContext, the
# fused multi-p sweeps BenchmarkSweepFused_{K4,K16} vs
# BenchmarkSweepSingle_K16, the batched dichotomy BenchmarkSignificantPs,
# cooperative cancellation), the windowing families (BenchmarkWindowPan/Zoom), the
# out-of-core store (BenchmarkStoreBuild, BenchmarkStoreWindowRead with
# chunks/op + readB/op, and BenchmarkWindowPan_DiskIndex — the disk twin
# of the incremental pan), live ingestion (BenchmarkFollowTick: one
# Extend + live-window advance, the follower's steady-state tick, vs
# BenchmarkFollowTick_Rebuild) and the serving layer
# (BenchmarkServerPan_{Hit,HitNewP,Derived,Scratch}: one aggregate request
# through the HTTP handler per cache build path). A subset of
# these are gated against regressions by scripts/benchdiff.sh.
#
#   scripts/bench.sh                       # every benchmark, 1 iteration
#   BENCH='BenchmarkWindow' scripts/bench.sh   # a subset
#   BENCHTIME=10x scripts/bench.sh             # more iterations per point
#   OUT=/tmp/b.json scripts/bench.sh           # alternate output path
#
# One iteration keeps this a smoke run (CI uses it to prove every
# benchmark still executes); for publishable numbers use BENCHTIME=10x or
# a duration like BENCHTIME=1s.
set -euo pipefail
cd "$(dirname "$0")/.."

pattern="${BENCH:-.}"
benchtime="${BENCHTIME:-1x}"
out="${OUT:-BENCH_core.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchtime "$benchtime" -benchmem . | tee "$tmp"

awk '
BEGIN { printf "{\n" }
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  ns = ""; allocs = ""; bytes = ""; cancel = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")        ns = $(i-1)
    if ($i == "allocs/op")    allocs = $(i-1)
    if ($i == "B/op")         bytes = $(i-1)
    if ($i == "cancel-ns/op") cancel = $(i-1)
  }
  if (ns != "") {
    if (n++) printf ",\n"
    printf "  \"%s\": {\"ns_per_op\": %s, \"allocs_per_op\": %s, \"bytes_per_op\": %s", \
      name, ns, (allocs == "" ? 0 : allocs), (bytes == "" ? 0 : bytes)
    if (cancel != "") printf ", \"cancel_ns_per_op\": %s", cancel
    printf "}"
  }
}
END { printf "\n}\n" }
' "$tmp" > "$out"

echo "wrote $out"
