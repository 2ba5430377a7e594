#!/usr/bin/env bash
#===- tools/ci.sh - the full local CI matrix ------------------------------===#
#
# Part of the RAP reproduction of "Profiling over Adaptive Ranges"
# (Mysore et al., CGO 2006). MIT license.
#
# One command, the whole gate:
#   1. plain build (RAP_WERROR=ON) + full test suite. Every build leg
#      below also fails on a dropped [[nodiscard]] status
#      (-Werror=unused-result) and on an undeclared extern "C"
#      definition in CApi.cpp (-Werror=missing-declarations), links
#      the header self-containment program (a non-inline definition in
#      a header is a link error), and runs the source_hygiene script
#      test (include guards; no clock or randomness in core/, hw/,
#      verify/; no stdio in the hot-path files)
#   1b. asserts-on build: RelWithDebInfo with "-O2 -g" instead of the
#      default "-O2 -g -DNDEBUG", so every invariant assert is compiled
#      in, + full test suite (the plain build runs with them all off)
#   2. AddressSanitizer build + full test suite
#   3. UndefinedBehaviorSanitizer build + full test suite + a
#      25-episode fuzz slice; UBSan reports are fatal
#      (-fno-sanitize-recover=undefined), so an out-of-width shift or a
#      division by zero fails the step, and the WILL_FAIL
#      ubsan_shift_probe test fails if the build ever recovers instead
#   4. 25-episode differential fuzz slices (ASan-instrumented): plain,
#      arena/stage-0 combined delivery (every checkpoint also
#      cross-checks the slab tree against the legacy ReferenceRapTree),
#      the fault regime (node/byte budgets, deterministic alloc
#      failures, snapshot corruption battery), the admission
#      regime (randomized split-admission tree cross-checked against
#      an admission-off twin fed the identical stream), and the fence
#      regime (cold-range fence tree vs a fence-off twin: bit-equal
#      answers, every provably-cold verdict checked against the
#      unfenced walk), and the sorted regime (each episode delivered in
#      ascending windows as stage-0 drains deliver it, so updates
#      resume deep in the previous update's path, under the legacy
#      root-descending cross-check)
#   5. ThreadSanitizer build + the `concurrency` ctest label (the
#      threaded ShardedRapSession suite, rap_fuzz_sharded_budget and
#      the WILL_FAIL tsan_lock_order_probe) plus a 25-episode sharded
#      fuzz slice — concurrent ingest threads and a reader racing the
#      watermark combiner under TSan. This is the session's lock
#      check: a data race or a lock-order inversion fails the step,
#      on every path the threaded tests run
#   6. when clang++ is installed: a clang build of rap_core with
#      -Wthread-safety, a static check of every RAP_GUARDED_BY access
#   7. perfbench: the end-to-end benchmark (perfbench/CMakeLists.txt,
#      which compiles the profiler straight from src/) configured into
#      its own build-perfbench/ tree, built, and its helper self-tests
#      run — proves the unmodified benchmark still compiles against the
#      current library API — then a 3 s traced run of each workload,
#      which fails the step unless its checker (every answer held
#      against ExactProfiler) reports "failed": 0
#
# Usage: tools/ci.sh [jobs]     (from the repo root; default jobs = nproc)
#
#===-----------------------------------------------------------------------===#

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

step() { printf '\n==== %s ====\n' "$*"; }

configure_and_test() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

step "plain build + tests (warnings are errors)"
configure_and_test build -DRAP_WERROR=ON

step "asserts-on build (RelWithDebInfo without NDEBUG) + tests"
configure_and_test build-asserts -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O2 -g"

step "AddressSanitizer build + tests"
configure_and_test build-asan -DRAP_SANITIZE=address

step "UndefinedBehaviorSanitizer build + tests + fuzz slice (fatal reports)"
configure_and_test build-ubsan -DRAP_SANITIZE=undefined
./build-ubsan/tools/rap_fuzz --episodes=25 --seed=1 --events=8000

step "differential fuzz slice (25 episodes, ASan)"
./build-asan/tools/rap_fuzz --episodes=25 --seed=1 --events=8000

step "arena fuzz slice (stage-0 combined delivery, 25 episodes, ASan)"
./build-asan/tools/rap_fuzz --arena --episodes=25 --seed=1 --events=8000

step "fault fuzz slice (budgets + alloc failures + snapshot battery, ASan)"
./build-asan/tools/rap_fuzz --faults --episodes=25 --seed=1 --events=8000

step "admission fuzz slice (gated splits vs admission-off twin, ASan)"
./build-asan/tools/rap_fuzz --admission --episodes=25 --seed=1 --events=8000

step "fence fuzz slice (cold-range fence vs fence-off twin, ASan)"
./build-asan/tools/rap_fuzz --fence --episodes=25 --seed=1 --events=8000

step "sorted fuzz slice (ascending stage-0 windows, finger descent, ASan)"
./build-asan/tools/rap_fuzz --sorted --episodes=25 --seed=1 --events=8000

step "ThreadSanitizer build + concurrency label + sharded fuzz slice"
cmake -B build-tsan -S . -DRAP_SANITIZE=thread >/dev/null
cmake --build build-tsan -j "$JOBS"
# Only the `concurrency` label runs under TSan: it marks every test
# that actually spawns threads. The rest of the suite is covered by
# the plain/ASan/UBSan legs above, where it runs far faster.
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L concurrency
./build-tsan/tools/rap_fuzz --sharded --episodes=25 --seed=1 --events=8000

# Clang's -Wthread-safety checks every RAP_GUARDED_BY access
# statically, including lock paths no threaded test runs, which TSan
# (step 5) cannot see. The container CI image ships only g++; skip
# quietly when absent.
if command -v clang++ >/dev/null 2>&1; then
  step "clang -Wthread-safety build (independent annotation check)"
  cmake -B build-ctsa -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_CXX_FLAGS="-Wthread-safety -Werror=thread-safety" >/dev/null
  cmake --build build-ctsa -j "$JOBS" --target rap_core
else
  step "clang -Wthread-safety leg skipped (no clang++ on PATH)"
fi

step "perfbench build + helper self-tests + checked run per workload"
cmake -S perfbench -B build-perfbench >/dev/null
cmake --build build-perfbench -j "$JOBS"
ctest --test-dir build-perfbench --output-on-failure -j "$JOBS"
for W in program-profile query-mixed; do
  ./build-perfbench/rap_perfbench --workload "$W" --seed 1 --seconds 3 \
      --trace 1 --spans "build-perfbench/ci-$W.csv" \
      >"build-perfbench/ci-$W.json"
  tail -n 1 "build-perfbench/ci-$W.json" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
print("perfbench %s: attempted %d, failed %d"
      % (sys.argv[1], result["attempted"], result["failed"]))
sys.exit(result["failed"] != 0)' "$W"
done

step "CI matrix green"
