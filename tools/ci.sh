#!/usr/bin/env bash
# CI entry point: sanitizer build + tier-1 tests, then (when the tools are
# installed) clang-tidy over the analysis subsystem and a repo-wide
# clang-format check.
#
#   tools/ci.sh              # ASan + UBSan + TSan test runs, tidy, format
#   tools/ci.sh address      # one sanitizer only
#   tools/ci.sh thread       # TSan over executor, oracle, governor, compile tests
#   tools/ci.sh fault        # ASan + fault injection compiled in + soak
#   tools/ci.sh fuzz         # ASan differential fuzz: vdmfuzz, 10k queries
#   tools/ci.sh server       # wire server: ASan+TSan conformance, fuzz leg,
#                            # loopback vdmload smoke
#   tools/ci.sh lint         # no hidden compiler state, warning-clean
#                            # build, SIMD-off kernel/exec tests,
#                            # vdmlint catalog audit (baseline-gated),
#                            # tidy, format
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-all}"
JOBS="$(nproc 2>/dev/null || echo 4)"

run_sanitizer() {
  local san="$1"
  local dir="build-${san}"
  echo "== ${san} sanitizer build =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE="${san}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  # Second pass with the plan cache on: the paper-query, property,
  # governor and SQL end-to-end suites must produce byte-identical results
  # (and the same errors) through the one parameterized compile + rebind
  # path too.
  echo "== ${san}: paper-query + property + governor + SQL tests, VDM_PLAN_CACHE=1 =="
  VDM_PLAN_CACHE=1 ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -R 'paper_queries_test|property_random_test|plan_cache_test|governor_test|sql_end2end_test'
  # Third pass with the SIMD kernels forced off: the exec / kernel /
  # paper-query suites must be byte-identical through the scalar
  # reference kernels (the default run above covers SIMD-on dispatch), and
  # the differential oracle's compressed-off leg diffs the generic path
  # against the scalar kernels.
  echo "== ${san}: exec + kernel + paper-query + differential tests, VDM_SIMD=0 =="
  VDM_SIMD=0 ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -R 'exec_test|exec_parallel_test|kernel_test|paper_queries_test|property_random_test|differential_test'
  # Fourth pass with the cost-based join reorderer forced off: the default
  # runs above cover reordering on (it is the default); this leg proves the
  # paper-query, property, and estimator suites are order-independent.
  echo "== ${san}: paper-query + property + stats tests, VDM_JOIN_REORDER=0 =="
  VDM_JOIN_REORDER=0 ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -R 'paper_queries_test|property_random_test|cardinality_test|sql_end2end_test'
  echo "== ${san}: all tests passed =="
}

run_thread_sanitizer() {
  # ThreadSanitizer over the tests that exercise concurrency: the worker
  # pool itself, the parallel executor suites, the differential oracle (its N-thread legs run tiny
  # morsels, so aggregate merges and probe waves run concurrently), the
  # plan cache (shared LRU hit from many sessions) and concurrent compiles
  # through the shared, lock-free optimizer.
  # Only these run: the rest of the test battery is single-threaded and
  # TSan slows it ~10x for no signal.
  local dir="build-thread"
  echo "== thread sanitizer build (pool + executor + oracle + cache + txn + compile tests) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE=thread >/dev/null
  cmake --build "${dir}" -j "${JOBS}" \
        --target thread_pool_test exec_test exec_parallel_test \
                 hash_table_test kernel_test plan_cache_test governor_test \
                 txn_test jeib_compile_test differential_test
  VDM_PLAN_CACHE=1 ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}" \
      -R 'thread_pool_test|exec_test|exec_parallel_test|hash_table_test|kernel_test|plan_cache_test|governor_test|txn_test|jeib_compile_test|differential_test'
  echo "== thread: pool + executor + oracle + plan cache + governor + txn + compile tests passed =="
}

run_fault() {
  # Fault-injection soak: ASan build with the fault points compiled in
  # (VDMQO_FAULT_INJECTION=ON — a release build compiles them to no-ops).
  # The full battery runs once with no faults armed (every point must be
  # inert), then the suites that arm faults through the FaultInjection API
  # (governor_test and the property_random_test soak case) run again with
  # the plan cache on to cover the cached compile path. The invariant
  # under test: injected failures surface as typed Status, never as a
  # crash, hang, or leak. (VDM_FAULT is deliberately NOT exported here —
  # it is process-wide and would fail the success-asserting cases; the
  # soak cases arm and clear their own schedules.)
  local dir="build-fault"
  echo "== fault-injection build (ASan + VDMQO_FAULT_INJECTION=ON) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE=address -DVDMQO_FAULT_INJECTION=ON >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
  echo "== fault: soak through the plan-cache path =="
  VDM_PLAN_CACHE=1 ctest --test-dir "${dir}" --output-on-failure \
      -R 'governor_test|property_random_test'
  # Armed-merge-fault DML soak: interleaved-transaction scripts with all
  # four txn/merge fault points firing at random; every injected failure
  # must leave the database in a state the differential oracle agrees
  # with (0 mismatches, nonzero conflicts/op-errors).
  echo "== fault: armed-merge-fault DML soak =="
  cmake --build "${dir}" -j "${JOBS}" --target vdmfuzz
  "${dir}/tools/vdmfuzz" --dml 300 --dml-faults --seed 1337 --progress 100 \
      --artifacts "${dir}/fuzz-artifacts"
  echo "== fault: soak passed =="
}

run_fuzz() {
  # Differential fuzz sweep (DESIGN.md §11): 10k generator queries, each
  # diffed against the reference-interpreter oracle across the full config
  # matrix, under ASan with the fault points compiled in. The seed corpus
  # is pinned (--seed 42) so a red run reproduces exactly; repro dumps
  # land in build-fuzz/fuzz-artifacts/. The self-test leg proves the
  # harness can still see a bug at all: a deliberately corrupted optimizer
  # pass and an armed fault schedule must both be detected.
  # These are the fuzz-labeled ctest targets (CONFIGURATIONS fuzz), which
  # plain tier-1 `ctest` deliberately skips.
  local dir="build-fuzz"
  echo "== differential fuzz build (ASan + fault points) =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE=address -DVDMQO_FAULT_INJECTION=ON >/dev/null
  cmake --build "${dir}" -j "${JOBS}" \
        --target vdmfuzz ref_interpreter_test differential_test
  echo "== fuzz: oracle + runner unit tests =="
  ctest --test-dir "${dir}" --output-on-failure \
      -R 'ref_interpreter_test|differential_test'
  echo "== fuzz: harness self-test (planted bug must be caught) =="
  ctest --test-dir "${dir}" --output-on-failure -C fuzz -R vdmfuzz_self_test
  echo "== fuzz: 10k-query sweep, seed 42 =="
  ctest --test-dir "${dir}" --output-on-failure -C fuzz -R 'vdmfuzz_sweep$'
  echo "== fuzz: 5k DML-script sweep + fault-armed leg =="
  ctest --test-dir "${dir}" --output-on-failure -C fuzz \
      -R 'vdmfuzz_dml_sweep|vdmfuzz_dml_faults'
  echo "== fuzz: zero engine-vs-oracle mismatches =="
}

run_server() {
  # Wire-server battery (DESIGN.md §16). Four legs:
  #   1. ASan + fault points: the full conformance suite (session isolation,
  #      prepared rebind across invalidation, CANCEL, tenant admission,
  #      dying connections) plus the frame fuzzer — garbage frames must
  #      produce typed errors or a dropped connection, never a crash or
  #      leak, and the teardown-ordering test runs with the merge/rollback
  #      fault points armed.
  #   2. TSan over the same suite: poll thread vs. pool tasks vs. client
  #      threads, admission gate, CANCEL racing a running statement.
  #   3. A short vdmfuzz --server sweep: the differential oracle matrix
  #      with every engine execution round-tripping a loopback connection;
  #      results must be byte-identical with the in-process path.
  #   4. A pinned low-QPS vdmload smoke with --verify: every row that comes
  #      back over the wire is diffed against the in-process expectation.
  local asan_dir="build-fault"
  echo "== server: ASan + fault-injection conformance + frame fuzzer =="
  cmake -B "${asan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE=address -DVDMQO_FAULT_INJECTION=ON >/dev/null
  cmake --build "${asan_dir}" -j "${JOBS}" --target server_test vdmfuzz vdmload
  ctest --test-dir "${asan_dir}" --output-on-failure -R 'server_test'

  local tsan_dir="build-thread"
  echo "== server: TSan conformance (poll/worker/cancel/admission races) =="
  cmake -B "${tsan_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SANITIZE=thread >/dev/null
  cmake --build "${tsan_dir}" -j "${JOBS}" --target server_test
  ctest --test-dir "${tsan_dir}" --output-on-failure -R 'server_test'

  echo "== server: differential fuzz through the loopback server =="
  "${asan_dir}/tools/vdmfuzz" --server --seed 42 --queries 300 \
      --progress 100 --artifacts "${asan_dir}/fuzz-artifacts"

  echo "== server: vdmload smoke (open-loop, verified results) =="
  "${asan_dir}/tools/vdmload" --connections 8 --qps 100 --duration 5 \
      --scale 0.05 --verify --out "${asan_dir}/BENCH_server_smoke.json"
  echo "== server: all legs passed =="
}

run_lint() {
  # Whole-catalog semantic audit (DESIGN.md §12): build vdmlint and run the
  # static inference rules over the synthetic + JEIB + fixture catalogs,
  # probing rewrites under all five system profiles. The committed baseline
  # suppresses accepted findings; the gate fails only on NEW findings at
  # warning or above, so intentional additions regenerate the baseline with
  #   build-lint/tools/vdmlint --catalog-audit --jeib --fixture \
  #       --write-baseline tools/vdmlint.baseline
  # The compiler and the executor keep no hidden state: per-compile caches
  # (the run's inference engine, the join reorderer's estimator) are
  # objects the optimizer driver owns and passes down (DESIGN.md §4.1), and
  # a join's probe-side code maps are computed before its morsels run
  # (DESIGN.md §8), so concurrent compiles and morsels share nothing
  # writable.
  echo "== no thread_local / mutable state in the compiler or executor =="
  local hidden
  if hidden="$(git grep -nE 'thread_local|\bmutable\b' -- src/optimizer \
      src/analysis/infer src/analysis/stats src/plan src/exec)"; then
    echo "${hidden}"
    echo "error: thread_local or mutable state in compiler or executor code" >&2
    return 1
  fi

  # Every target builds with our own code's warnings as errors. GCC 12's
  # libstdc++ -Wrestrict / -Wmaybe-uninitialized false positives stay
  # plain warnings.
  local dir="build-lint"
  local werror="-Werror=unused-parameter -Werror=unused-function"
  werror+=" -Werror=unused-variable -Werror=missing-field-initializers"
  echo "== warning-clean build of every target =="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="${werror}" >/dev/null
  cmake --build "${dir}" -j "${JOBS}"
  # The AVX2 kernel TU compiled out (-DVDMQO_SIMD=OFF): dispatch is
  # scalar at compile time, and the kernel and executor suites must pass
  # on that build too.
  local nosimd_dir="build-nosimd"
  echo "== -DVDMQO_SIMD=OFF build: kernel + exec tests =="
  cmake -B "${nosimd_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DVDMQO_SIMD=OFF -DCMAKE_CXX_FLAGS="${werror}" >/dev/null
  cmake --build "${nosimd_dir}" -j "${JOBS}" --target kernel_test exec_test
  ctest --test-dir "${nosimd_dir}" --output-on-failure -j "${JOBS}" \
      -R 'kernel_test|exec_test'
  echo "== vdmlint: whole-catalog audit =="
  "${dir}/tools/vdmlint" --catalog-audit --jeib --fixture \
      --baseline tools/vdmlint.baseline --fail-on warning
  echo "== vdmlint: no new findings at warning+ =="

  # clang-tidy on the analysis subsystem, the inference engine, and the
  # CLI tools (minimum bar; extend as modules are brought up to
  # zero-warning state).
  if command -v clang-tidy >/dev/null 2>&1; then
    local tidy_dir="build-tidy"
    cmake -B "${tidy_dir}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    echo "== clang-tidy: src/analysis + src/analysis/infer + tools =="
    clang-tidy -p "${tidy_dir}" --quiet \
        src/analysis/*.cc src/analysis/infer/*.cc tools/*.cc
  else
    echo "clang-tidy not installed; skipping tidy step"
  fi

  # Format check, repo-wide. Informational unless clang-format is present.
  if command -v clang-format >/dev/null 2>&1; then
    echo "== clang-format check =="
    local files
    files="$(git ls-files '*.cc' '*.h')"
    # shellcheck disable=SC2086
    clang-format --dry-run --Werror ${files}
  else
    echo "clang-format not installed; skipping format check"
  fi
}

case "${MODE}" in
  address|undefined)
    run_sanitizer "${MODE}"
    ;;
  thread)
    run_thread_sanitizer
    ;;
  fault)
    run_fault
    ;;
  fuzz)
    run_fuzz
    ;;
  server)
    run_server
    ;;
  lint)
    run_lint
    ;;
  all)
    run_sanitizer address
    run_sanitizer undefined
    run_thread_sanitizer
    run_fault
    run_fuzz
    run_server
    run_lint
    ;;
  *)
    echo "usage: $0 [address|undefined|thread|fault|fuzz|server|lint|all]" >&2
    exit 2
    ;;
esac
