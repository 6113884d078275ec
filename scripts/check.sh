#!/usr/bin/env bash
# Local tier-1 gate, mirroring CI: build + ctest in Release (strict:
# -Werror, plus a clang-format check when the binary is available) and
# under each sanitizer. Run from anywhere; builds land in
# <repo>/build-check-*.
#
#   scripts/check.sh            # Release + address + thread + undefined
#                               # + coverage
#   scripts/check.sh release    # just the strict Release leg
#   scripts/check.sh thread     # just the TSan leg (parallel/chaos paths)
#   scripts/check.sh undefined  # just the UBSan leg (overload/admission math)
#   scripts/check.sh coverage   # gcov leg + line-coverage floor
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
legs=("${@:-release}")
if [ "$#" -eq 0 ]; then
  legs=(release address thread undefined coverage)
fi

jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Hang backstop: per-test TIMEOUTs (tests/CMakeLists.txt) make a deadlocked
# test fail, and this outer wall-clock guard makes a wedged ctest process
# itself fail rather than hang the whole check. Skipped gracefully where
# coreutils `timeout` is unavailable.
ctest_wall_clock_budget="${TEXTJOIN_CTEST_BUDGET_SECONDS:-1800}"
run_ctest() {
  if command -v timeout >/dev/null 2>&1; then
    timeout --kill-after=30 "$ctest_wall_clock_budget" ctest "$@"
  else
    ctest "$@"
  fi
}

# Formatting gate, mirroring the CI strict job. Skipped gracefully when no
# clang-format is installed (the compile legs still run).
if command -v clang-format >/dev/null 2>&1; then
  echo "==> clang-format check"
  (cd "$repo" && git ls-files '*.h' '*.cc' '*.cpp' |
    xargs clang-format --dry-run --Werror)
else
  echo "==> clang-format not found; skipping format check"
fi

for leg in "${legs[@]}"; do
  case "$leg" in
    release)
      build="$repo/build-check-release"
      cmake -B "$build" -S "$repo" -DCMAKE_BUILD_TYPE=Release \
        -DTEXTJOIN_SANITIZE= -DTEXTJOIN_WERROR=ON
      ;;
    address | thread | undefined)
      build="$repo/build-check-$leg"
      cmake -B "$build" -S "$repo" -DTEXTJOIN_SANITIZE="$leg"
      ;;
    coverage)
      build="$repo/build-check-coverage"
      cmake -B "$build" -S "$repo" -DTEXTJOIN_SANITIZE= -DTEXTJOIN_COVERAGE=ON
      ;;
    *)
      echo "unknown leg '$leg' (want: release, address, thread, undefined," \
        "coverage)" >&2
      exit 2
      ;;
  esac
  echo "==> [$leg] building"
  cmake --build "$build" -j "$jobs"
  echo "==> [$leg] testing"
  run_ctest --test-dir "$build" --output-on-failure -j "$jobs"
  if [ "$leg" = release ]; then
    # Build-only: the serving benchmark compiles the library sources
    # itself; a src/ API change that breaks it must fail here.
    echo "==> [release] building the serving benchmark (servebench/)"
    cmake -S "$repo/servebench" -B "$repo/build-check-servebench" \
      -DCMAKE_BUILD_TYPE=Release
    cmake --build "$repo/build-check-servebench" -j "$jobs"
    echo "==> [release] shard scaling gate"
    "$build/bench/bench_shard_scaling"
    echo "==> [release] cancellation gates"
    "$build/bench/bench_cancellation"
    # Vectorized perf smoke (DESIGN.md §14): block-compressed vs legacy
    # kernels on identical inputs, gated on the geometric-mean speedup
    # (3x target, 1.5x hard floor as the noise backstop). Also refreshes
    # the machine-readable BENCH_vectorized.json snapshot.
    echo "==> [release] vectorized perf smoke (block vs legacy kernels)"
    "$build/bench/bench_micro" --perf_smoke \
      --snapshot_path="$build/BENCH_vectorized.json"
    # Multi-tenant fairness gates (DESIGN.md §15): quiet tenants keep
    # >= 85% of isolated goodput under an 8x-greedy flood, bounded
    # tenancy tax, open-loop session conservation. The golden-explain
    # wall itself (golden_explain_test + golden_hygiene_test) runs in
    # every ctest pass above; regenerate goldens ONLY with
    # scripts/update_goldens.sh.
    echo "==> [release] multi-tenant fairness gates"
    "$build/bench/bench_multitenant"
    # Live-mutation gates (DESIGN.md §16): read-only snapshot overhead
    # vs a frozen engine, and query throughput while a writer churns and
    # the merge worker folds deltas behind it. The snapshot-consistency
    # grid itself (live_corpus_test + mutation_service_test) runs in
    # every ctest pass above, including the sanitizer legs.
    echo "==> [release] live-mutation gates (snapshot overhead + merge churn)"
    "$build/bench/bench_live_mutation"
  fi
  if [ "$leg" = coverage ]; then
    echo "==> [coverage] line-coverage floor"
    python3 "$repo/scripts/coverage_report.py" --build-dir "$build" \
      --out "$build/coverage.json"
  fi
done

echo "All checks passed: ${legs[*]}"
