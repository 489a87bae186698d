#!/usr/bin/env bash
# Pre-merge verification gate: build and run the full test suite three times —
# plain, under AddressSanitizer+UBSan, and under ThreadSanitizer — each in its
# own build directory so the configurations never contaminate one another.
#
# Usage:
#   scripts/verify.sh              # all three configurations
#   scripts/verify.sh plain        # just the plain build
#   scripts/verify.sh asan tsan    # any subset, in order
#   scripts/verify.sh --quick      # inner-loop mode: plain build only, torture
#                                  # episodes cut to 4 and cluster fault-matrix
#                                  # episodes cut to 4 (pre-set
#                                  # TWHEEL_TORTURE_EPISODES /
#                                  # TWHEEL_CLUSTER_EPISODES still win);
#                                  # combine with configs to quicken a subset,
#                                  # e.g. `scripts/verify.sh --quick tsan`
#
# Environment:
#   JOBS=<n>          parallel build jobs (default: nproc)
#   CTEST_ARGS=...    extra arguments forwarded to ctest (e.g. -R ModelCheck)
#   TWHEEL_TORTURE_EPISODES=<n>
#                     episodes per case for the `torture`-labelled concurrent
#                     tests (including the restart, periodic, and mpmc torture
#                     suites); when unset, the plain build runs the tests'
#                     default (50) and the sanitizer builds run reduced counts
#                     (asan 12, tsan 8) since each episode costs ~20x there.
#   TWHEEL_CLUSTER_EPISODES=<n>
#                     episodes per (adversary, scheme) cell of the replicated-
#                     cluster fault matrix (tests/cluster/cluster_fault_test).
#                     When unset the matrix runs its built-in floor of 100
#                     episodes per cell in EVERY configuration — the ISSUE-10
#                     acceptance bar holds under ASan and TSan too, and the
#                     episodes are cheap enough (~2 s plain for all 1200) that
#                     the sanitizer gate stays tractable without a reduction.
#
# Every configuration runs the FULL ctest suite, so the `restart`-labelled
# tests (restart_differential_test, restart_regression_test,
# restart_torture_test), the `periodic`-labelled tests
# (periodic_differential_test, periodic_regression_test, periodic_torture_test,
# timer_server_test), the `mpmc`-labelled tests (mpmc_torture_test's
# kMultiTicker/kStealStorm episodes, dispatch_pool_test), and the
# `lawn`-labelled tests (lawn_regression_test, slop_differential_test, plus the
# scheme-8 rows of every kAllSchemes-parameterized suite), the
# `layout`-labelled tests (layout_test: hot/cold TimerRecord offset, union, and
# slab-alignment pins), the `facade`-labelled tests (static_facade_test:
# every scheme called through its own final type — oracle differential, plus
# lockstep byte-equality against a twin driven through TimerService&), and
# the `cluster`-labelled tests (the replicated timer cluster: fault-matrix
# oracle episodes, failover timing, twin/cross-scheme
# determinism, the facade differential torture, wire-decode robustness, and
# the channel counter-snapshot race — the last two are exactly the suites the
# ASan/UBSan and TSan legs exist to arm) are exercised plain, under ASan+UBSan,
# and under TSan on every gate run. `ctest -L restart` / `ctest -L periodic` /
# `ctest -L mpmc` / `ctest -L lawn` / `ctest -L layout` / `ctest -L facade` /
# `ctest -L cluster` in any build directory runs just them.
#
# The `clock`-labelled tests (ticker_test, ticker_stress_test, tsan_stress_test,
# dispatch_pool_test, timer_server_test) are the suites whose threads pace
# themselves off the wall clock, so an interleaving bug there shows up as a rare
# flake rather than a steady failure. timer_server_test is there for its
# TickerThread and DispatchPool cases, in which drainers deliver check-ins (the
# host fires of lazily restarted timers) while the test thread sends requests. The plain leg (not --quick) therefore reruns them after the
# full suite with `ctest -L clock --repeat until-fail:50`: each clock test must
# pass 50 consecutive runs. CTEST_ARGS applies to the rerun too.
#
# The plain leg (not --quick) then runs the Appendix A.2 experiment once,
# briefly (`build/bench/bench_appA2_smp --benchmark_min_time=0.01`; the gate
# fails on a non-zero exit), so the paper experiment that exercises the
# library's thread-safety wrappers runs on every gate, not just builds. Next it
# runs the static-dispatch rows once, briefly
# (`build/bench/bench_static_dispatch --benchmark_filter='^static_dispatch/'
# --benchmark_min_time=0.01`, about a second; the gate fails on a non-zero
# exit), so the virtual and concrete-type paths of seven schemes run
# start/stop, restart and periodic ticks on every gate. Its space_at_scale
# rows are left out: the 100M row needs about 13 GiB. Next it runs the
# sparse-tick rows once, briefly (`build/bench/bench_sparse_tick
# --benchmark_min_time=0.01`, under a second; the gate fails on a non-zero
# exit), so the per-tick loop and the batched AdvanceTo walk of five wheels
# cross a mostly dead 65536-tick span on every gate. It then checks the
# paper's op-count tables: each deterministic printf experiment
# named by a file bench/expected/<name>.txt (the ablation, Appendix A.1, Figures
# 3, 7 and 9, Sections 3.2, 6, 6.2 and 7) must print exactly that file, and the
# gate fails on a non-zero exit or any diff; bench_sec4_timeflow prints wall
# time per event, so only its exit status is checked. A change that moves a
# paper figure on purpose re-records the file in the same change. It
# then runs the end-to-end benchmark briefly on each workload: `python3 e2ebench/run.py --workload <w> --seed 1 --seconds 2
# --trace 0` for retransmit, periodic and cluster. It builds Release (NDEBUG)
# into .bench_build/ and the gate fails unless the result line says
# "correct": true with "failed": 0 — so the benchmark's exact client model and
# its ClusterOracle replay of the cluster trace run on an optimized build too.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

QUICK=0
CONFIGS=()
for arg in "$@"; do
  if [ "$arg" = "--quick" ]; then
    QUICK=1
  else
    CONFIGS+=("$arg")
  fi
done
if [ ${#CONFIGS[@]} -eq 0 ]; then
  if [ "$QUICK" = 1 ]; then
    CONFIGS=(plain)
  else
    CONFIGS=(plain asan tsan)
  fi
fi

# Pre-set TWHEEL_TORTURE_EPISODES / TWHEEL_CLUSTER_EPISODES win over the
# per-config defaults and the --quick reduction.
USER_TORTURE_EPISODES="${TWHEEL_TORTURE_EPISODES:-}"
USER_CLUSTER_EPISODES="${TWHEEL_CLUSTER_EPISODES:-}"

e2e_smoke() {
  local workload result
  for workload in retransmit periodic cluster; do
    echo "=== [plain] e2ebench $workload ==="
    result="$(python3 e2ebench/run.py --workload "$workload" --seed 1 \
      --seconds 2 --trace 0 | tail -n 1)"
    echo "$result"
    if ! python3 -c 'import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$result"; then
      echo "e2ebench $workload: incorrect result or failed operations" >&2
      exit 1
    fi
  done
  echo "=== [plain] e2ebench OK ==="
}

paper_tables() {
  local expected name
  echo "=== [plain] paper tables ==="
  for expected in bench/expected/*.txt; do
    name="$(basename "$expected" .txt)"
    if ! "build/bench/$name" | diff -u "$expected" -; then
      echo "$name: failed or its output differs from $expected" >&2
      exit 1
    fi
  done
  if ! build/bench/bench_sec4_timeflow >/dev/null; then
    echo "bench_sec4_timeflow failed" >&2
    exit 1
  fi
  echo "=== [plain] paper tables OK ==="
}

run_config() {
  local name="$1" build_dir="$2" episodes="$3"
  shift 3
  if [ "$QUICK" = 1 ]; then
    episodes=4
    export TWHEEL_CLUSTER_EPISODES="${USER_CLUSTER_EPISODES:-4}"
  elif [ -n "$USER_CLUSTER_EPISODES" ]; then
    export TWHEEL_CLUSTER_EPISODES="$USER_CLUSTER_EPISODES"
  else
    # Unset means the fault matrix runs its built-in 100-episode floor.
    unset TWHEEL_CLUSTER_EPISODES
  fi
  export TWHEEL_TORTURE_EPISODES="${USER_TORTURE_EPISODES:-$episodes}"
  echo "=== [$name] configure ==="
  cmake -S . -B "$build_dir" "$@" >/dev/null
  echo "=== [$name] build ==="
  cmake --build "$build_dir" -j "$JOBS"
  echo "=== [$name] test ==="
  # shellcheck disable=SC2086
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" ${CTEST_ARGS:-}
  echo "=== [$name] OK ==="
}

for config in "${CONFIGS[@]}"; do
  case "$config" in
    plain)
      run_config plain build 50
      if [ "$QUICK" = 0 ]; then
        echo "=== [plain] clock repeat ==="
        # shellcheck disable=SC2086
        ctest --test-dir build --output-on-failure -j "$JOBS" -L clock \
          --repeat until-fail:50 ${CTEST_ARGS:-}
        echo "=== [plain] clock repeat OK ==="
        echo "=== [plain] bench_appA2_smp ==="
        build/bench/bench_appA2_smp --benchmark_min_time=0.01
        echo "=== [plain] bench_appA2_smp OK ==="
        echo "=== [plain] bench_static_dispatch ==="
        build/bench/bench_static_dispatch \
          --benchmark_filter='^static_dispatch/' --benchmark_min_time=0.01
        echo "=== [plain] bench_static_dispatch OK ==="
        echo "=== [plain] bench_sparse_tick ==="
        build/bench/bench_sparse_tick --benchmark_min_time=0.01
        echo "=== [plain] bench_sparse_tick OK ==="
        paper_tables
        e2e_smoke
      fi ;;
    asan)
      # halt_on_error: the first report fails the test instead of scrolling by.
      ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}" \
      UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}" \
      run_config asan build-asan 12 -DTWHEEL_SANITIZE=address ;;
    tsan)
      TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
      run_config tsan build-tsan 8 -DTWHEEL_SANITIZE=thread ;;
    *)
      echo "unknown configuration '$config' (use plain|asan|tsan)" >&2
      exit 2 ;;
  esac
done

echo "All requested configurations passed: ${CONFIGS[*]}"
