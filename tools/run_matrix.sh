#!/bin/sh
# Build + test the whole matrix of sanitizer flavours in one command:
#
#   tools/run_matrix.sh              # plain, asan, tsan (in that order)
#   tools/run_matrix.sh plain tsan   # just the named flavours
#   JOBS=4 tools/run_matrix.sh       # cap build/test parallelism
#
# Each flavour gets its own build directory (build-matrix-<flavour>) so the
# matrix never invalidates an existing ./build, and a failure in one flavour
# stops the run with that flavour's name on stderr. This is the one-command
# pre-merge gate: the farm chaos suites, the parallel-engine suites, the
# serving suites, the persistence gate (bench_persist_quick: binary
# load >= 10x text, text<->binary byte-identity), the stitcher engine
# gates (bench_stitch_quick: evo at least 1.5x faster than SA in min-of-3
# wall clock at no worse cost, plus the stitch_portfolio_jobs multi-start
# bit-identity rerun at MF_TEST_JOBS=8), and the serving-daemon gates
# (bench_serving_load_quick: >= 5x coalesced QPS with bit-identical
# responses, p99 within the coalesce budget + slack, canary rollback with
# zero client-visible errors, and chaos recovery -- a SIGKILLed supervised
# daemon costs chaos clients only latency, never a wrong answer;
# srv_parallel_jobs: the protocol/coalescer/reload suites under
# contention; srv_chaos: the resilient-client retry machinery crossed
# with the supervisor's respawn loop) all re-run under ASan/UBSan and
# TSan here via each flavour's ctest.

set -eu

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
FLAVOURS="${*:-plain asan tsan}"

sanitize_value() {
  case "$1" in
    plain) echo "OFF" ;;
    asan)  echo "ON" ;;
    tsan)  echo "tsan" ;;
    *) echo "unknown flavour '$1' (expected plain, asan, tsan)" >&2; exit 1 ;;
  esac
}

for flavour in $FLAVOURS; do
  sanitize="$(sanitize_value "$flavour")"
  dir="build-matrix-$flavour"
  echo "== [$flavour] configure ($dir, MF_SANITIZE=$sanitize) =="
  cmake -B "$dir" -S . -DMF_SANITIZE="$sanitize" >/dev/null
  echo "== [$flavour] build =="
  cmake --build "$dir" -j "$JOBS"
  echo "== [$flavour] ctest =="
  if ! (cd "$dir" && ctest --output-on-failure -j "$JOBS"); then
    echo "matrix flavour '$flavour' FAILED" >&2
    exit 1
  fi
done
echo "matrix OK: $FLAVOURS"
