#!/usr/bin/env bash
# Tier-1 verification, exactly as CI and ROADMAP.md define it, plus an
# AddressSanitizer+UBSan build of the same tree:
#
#   scripts/check.sh             # plain build + ctest, then sanitized build + ctest
#   scripts/check.sh --fast      # plain build + ctest only
#   scripts/check.sh --faults    # sanitized build, fault-injection suite only
#                                # (inject_test, salvager_test, the stress fault
#                                # storm, and the bench_fault_storm smokes) —
#                                # injected faults + retry/salvage recovery are
#                                # exactly where lifetime bugs hide, so this
#                                # suite always runs under ASan+UBSan.
#   scripts/check.sh --lint      # static certifier only: mx_lint over the repo,
#                                # mx_audit over the standard boots, and the
#                                # certifier fixture tests (ctest -L lint);
#                                # clang-tidy over src/base when installed.
#   scripts/check.sh --tsan      # ThreadSanitizer build (build-tsan/) running
#                                # the parallel page-control and stress suites.
#   scripts/check.sh --smp       # simulated-multiprocessor suite: the full
#                                # tier-1 ctest list re-run at MULTICS_CPUS=4
#                                # (every test must hold on a 4-CPU machine),
#                                # the SMP determinism/scheduler tests, and the
#                                # bench_smp scalability table.
#   scripts/check.sh --sessions  # session-engine suite: the scheduler and
#                                # session tests plus the full bench_sessions
#                                # run (100/1k/10k users, MLF-vs-FIFO, trace
#                                # determinism) under ASan+UBSan, then the
#                                # tier-1 ctest list with the MLF scheduler
#                                # (the default) in the plain build.
#   scripts/check.sh --certify   # exhaustive certification suite: the
#                                # certify-labeled ctests (mx_mc fixed-point
#                                # run, fuzz replay, the mutation kill-tests,
#                                # and the kernel snapshot/restore
#                                # fingerprints), a byte-identical determinism
#                                # check (two mx_mc runs, stdout compared with
#                                # cmp, JSONs compared with bench_diff), and
#                                # the deep 3x3x3 configuration with the full
#                                # op alphabet.
#   scripts/check.sh --release   # optimized build: configures build-release/
#                                # with -DCMAKE_BUILD_TYPE=Release (-O3, so
#                                # GCC's inlining-dependent warnings such as
#                                # -Wrestrict fire that the default
#                                # RelWithDebInfo build never sees), builds
#                                # every target under the same -Werror, and
#                                # runs the certify-labeled ctests on it.
#   scripts/check.sh --perf      # host-performance observatory suite: the
#                                # perf-labeled ctests (mx_top --once), the
#                                # smoke bench harness with the host profiler
#                                # on, bench_diff gating against the committed
#                                # bench/smoke_baseline.json (sim metrics at
#                                # 0% tolerance, host metrics at a wide band —
#                                # exit 3 = "the simulator got slower"), and
#                                # the non-perturbation stdout check (profiler
#                                # on/off must be byte-identical on stdout).
#   scripts/check.sh --perf --rebaseline
#                                # refresh bench/smoke_baseline.json from the
#                                # current tree instead of gating against it.
#                                # Refuses on a dirty working tree: the
#                                # committed baseline must correspond to
#                                # committed code, never to a half-edited
#                                # state. Commit first, rebaseline, then
#                                # commit the new baseline with a rationale.
#
# The plain ctest list already includes the lint-labeled tests, so the
# default run certifies the tree too; --lint is the quick loop.
#
# Build trees: build/ (plain), build-asan/ (sanitized), build-tsan/ (TSan),
# build-release/ (Release), all from the repo root, so the script is safe to
# run from anywhere.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--lint" ]]; then
  echo "== static certifier: mx_lint + mx_audit + fixture tests (build/) =="
  cmake -B build -S .
  cmake --build build -j --target mx_lint mx_audit lint_test audit_static_test
  (cd build && ctest --output-on-failure -L lint -j "$(nproc)")
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "== clang-tidy (.clang-tidy: bugprone-*, performance-*) over src/base =="
    clang-tidy -p build --warnings-as-errors='*' src/base/*.cc
  else
    echo "== clang-tidy not installed; skipping (config in .clang-tidy) =="
  fi
  echo "== ok (lint) =="
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== parallel page-control suite under TSan (build-tsan/) =="
  cmake -B build-tsan -S . -DMULTICS_SANITIZE=thread
  cmake --build build-tsan -j --target mem_test stress_test
  (cd build-tsan && ctest --output-on-failure -R 'mem_test|stress_test' -j "$(nproc)")
  echo "== ok (tsan suite) =="
  exit 0
fi

if [[ "${1:-}" == "--smp" ]]; then
  echo "== simulated multiprocessor: tier-1 ctest at MULTICS_CPUS=4 (build/) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && MULTICS_CPUS=4 ctest --output-on-failure -j "$(nproc)")
  echo "== smp scheduler/determinism tests at 1, 2, and 6 CPUs =="
  for n in 1 2 6; do
    (cd build && MULTICS_CPUS=$n ctest --output-on-failure -R 'smp_test|proc_test' -j "$(nproc)")
  done
  echo "== bench_smp: partitioned vs global-lock scaling, 1-6 CPUs =="
  ./build/bench/bench_harness --json=BENCH_PR5.json bench_smp
  echo "== ok (smp suite) =="
  exit 0
fi

if [[ "${1:-}" == "--sessions" ]]; then
  echo "== session engine + scheduler suite under ASan+UBSan (build-asan/) =="
  cmake -B build-asan -S . -DMULTICS_SANITIZE=ON
  cmake --build build-asan -j --target session_test sched_test bench_sessions
  (cd build-asan && ctest --output-on-failure -R 'session_test|sched_test|bench_sessions_smoke' -j "$(nproc)")
  echo "== bench_sessions full run under ASan (100/1k/10k sessions, MLF vs FIFO) =="
  ./build-asan/bench/bench_sessions --json=build-asan/BENCH_SESSIONS_ASAN.json
  echo "== tier-1 ctest with the MLF scheduler (build/) =="
  cmake -B build -S .
  cmake --build build -j
  (cd build && ctest --output-on-failure -j "$(nproc)")
  echo "== ok (sessions suite) =="
  exit 0
fi

if [[ "${1:-}" == "--certify" ]]; then
  echo "== exhaustive certification suite (build/) =="
  cmake -B build -S .
  cmake --build build -j --target mx_mc mx_lint modelcheck_test kernel_snapshot_test lint_test
  echo "== certify- and lint-labeled ctests =="
  (cd build && ctest --output-on-failure -L 'certify|lint' -j "$(nproc)")
  echo "== determinism: two mx_mc runs must match to the byte =="
  # Deliberately run one of the two under a hostile environment: neither the
  # CPU count nor the host profiler may perturb the exploration or stdout.
  ./build/tools/mx_mc --json=build/MC_A.json > build/mc_a.stdout
  MULTICS_CPUS=4 MX_HOST_PROFILE=1 \
    ./build/tools/mx_mc --json=build/MC_B.json > build/mc_b.stdout
  cmp build/mc_a.stdout build/mc_b.stdout
  ./scripts/bench_diff.py build/MC_A.json build/MC_B.json --host-band 400
  echo "== deep configuration: 3x3x3, full op alphabet =="
  ./build/tools/mx_mc --deep --json=build/MC_DEEP.json
  echo "== ok (certify suite) =="
  exit 0
fi

if [[ "${1:-}" == "--release" ]]; then
  echo "== Release build, every target under -Werror (build-release/) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j
  echo "== certify-labeled ctests on the Release build =="
  (cd build-release && ctest --output-on-failure -L certify -j "$(nproc)")
  echo "== ok (release) =="
  exit 0
fi

if [[ "${1:-}" == "--perf" ]]; then
  if [[ "${2:-}" == "--rebaseline" ]]; then
    # The baseline is a committed artifact; refresh it only from a tree that
    # matches what will be committed alongside it.
    if [[ -n "$(git status --porcelain)" ]]; then
      echo "check.sh --perf --rebaseline: working tree is dirty; commit or" >&2
      echo "stash first so the new baseline corresponds to committed code." >&2
      exit 1
    fi
    echo "== rebaseline: regenerating bench/smoke_baseline.json (build/) =="
    cmake -B build -S .
    cmake --build build -j --target bench_harness
    MULTICS_CPUS=1 MX_HOST_PROFILE=1 \
      ./build/bench/bench_harness --smoke --json=bench/smoke_baseline.json
    echo "== new baseline written; review the diff and commit it =="
    git --no-pager diff --stat bench/smoke_baseline.json
    exit 0
  fi
  echo "== host-performance observatory suite (build/) =="
  cmake -B build -S .
  cmake --build build -j --target bench_harness bench_cost_of_security mx_top hostprof_test
  echo "== perf-labeled ctests (mx_top --once) + hostprof_test =="
  (cd build && ctest --output-on-failure -L perf)
  (cd build && ctest --output-on-failure -R hostprof_test)
  echo "== smoke harness, host profiler on, pinned to 1 CPU =="
  # Pinned CPU count: the sim metrics in the baseline are only reproducible
  # per (seed, cpus). Host metrics vary with the machine; the wide band
  # below only catches order-of-magnitude slowdowns, not noise.
  MULTICS_CPUS=1 MX_HOST_PROFILE=1 \
    ./build/bench/bench_harness --smoke --json=build/BENCH_SMOKE.json
  echo "== bench_diff: sim metrics exact, host metrics within ±75% =="
  ./scripts/bench_diff.py bench/smoke_baseline.json build/BENCH_SMOKE.json --host-band 75
  echo "== non-perturbation: profiler on/off stdout must be byte-identical =="
  # Same --json path both times: stdout must match to the byte (the host
  # profile report goes to stderr, which is discarded here).
  MULTICS_CPUS=1 MX_HOST_PROFILE=0 ./build/bench/bench_cost_of_security --smoke \
    --json=build/COST_PROFILE.json > build/cost_off.stdout
  MULTICS_CPUS=1 MX_HOST_PROFILE=1 ./build/bench/bench_cost_of_security --smoke \
    --json=build/COST_PROFILE.json 2>/dev/null > build/cost_on.stdout
  cmp build/cost_off.stdout build/cost_on.stdout
  echo "== ok (perf suite) =="
  exit 0
fi

if [[ "${1:-}" == "--faults" ]]; then
  echo "== fault-injection suite under ASan+UBSan (build-asan/) =="
  cmake -B build-asan -S . -DMULTICS_SANITIZE=ON
  cmake --build build-asan -j --target inject_test salvager_test stress_test bench_fault_storm
  (cd build-asan && ctest --output-on-failure -R 'inject_test|salvager_test|stress_test|bench_fault_storm' -j "$(nproc)")
  echo "== ok (fault suite) =="
  exit 0
fi

echo "== tier-1: configure + build + ctest (build/) =="
cmake -B build -S .
cmake --build build -j
(cd build && ctest --output-on-failure -j)

if [[ "${1:-}" == "--fast" ]]; then
  echo "== ok (fast mode: sanitizers skipped) =="
  exit 0
fi

echo "== sanitized: ASan+UBSan build + ctest (build-asan/) =="
# The full ctest list includes the fault-injection suite (inject_test and the
# bench_fault_storm smokes), so every injected-fault recovery path runs under
# the sanitizers here too.
cmake -B build-asan -S . -DMULTICS_SANITIZE=ON
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j)

echo "== ok =="
