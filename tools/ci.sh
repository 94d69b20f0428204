#!/usr/bin/env bash
# Full verification pipeline, in increasing order of cost:
#
#   * plain build + tier-1 test suite
#   * the same suite with the runtime invariant auditors on (HYPERION_AUDIT=1)
#   * chaos: the seeded fault-injection sweeps (fixed seed ranges baked into
#     tests/chaos_test.cc) rerun with the auditors on — migration must either
#     converge with zero divergence or roll back to a source that still
#     passes every invariant audit; the cluster sweep must conserve every
#     guest across an injected host crash
#   * SMP suites under audit with a real 4-thread worker pool
#   * AddressSanitizer build + suite (includes the chaos sweeps)
#   * UndefinedBehaviorSanitizer build + suite (includes the chaos sweeps)
#   * ThreadSanitizer build + the concurrency-relevant suites with
#     HYPERION_WORKERS=4, so the staged execution core's worker pool and
#     every per-slice staging buffer actually run multi-threaded under TSan
#   * static staging discipline: the negative-compile suite (phase-token
#     violations must fail to build; see tests/negcompile/) plus, where
#     clang is available, a -DHYPERION_THREAD_SAFETY=ON build that enforces
#     clang -Wthread-safety over the annotated core
#   * clang-tidy lint (skipped gracefully where clang-tidy is absent)
#   * perf smoke: Release bench_exec and bench_net. The DBT engine must
#     clear 2x the interpreter's guest-MIPS on the hot compute kernel — a
#     coarse anti-regression tripwire, not a microbench gate (steady-state
#     margin is ~3x; 2x absorbs shared-runner noise). The net data plane
#     gate is exact: batched virtio must clear 3x the per-frame path's
#     frames/sec and stay under 50 interrupts per 1k frames, measured in
#     deterministic simulated time (immune to runner noise)
#   * cluster gate: Release bench_cluster --gate runs the fixed fleet
#     scenario (4 hosts, churn, drain, injected crash) at 0 and 4 workers —
#     zero guests lost, every migration reconciled against its
#     MigrationReport, bit-identical results across worker counts
#   * sim digests: each hvbench workload at seed 1 must print the sim_digest
#     recorded in tools/sim_digests.txt, and the sha256 of the Release
#     bench_migration output (the F4 tables, simulated time only, F4d being
#     pre-copy under injected loss) must match its line there, so a change to
#     simulated behaviour has to update that file visibly
#
# Stage numbers are printed by the stage() helper, so inserting a stage never
# desynchronizes the [N/TOTAL] banners again.
#
# Usage: tools/ci.sh [--fast]     --fast skips the sanitizer builds.

set -eu

cd "$(dirname "$0")/.."
FAST=0
[ "${1:-}" = "--fast" ] && FAST=1
JOBS=$(nproc 2>/dev/null || echo 4)

TOTAL=12
STAGE=0
stage() {  # stage <banner text>
  STAGE=$((STAGE + 1))
  echo "=== [$STAGE/$TOTAL] $1 ==="
}

run_suite() {  # run_suite <build-dir> [extra cmake flags...]
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  (cd "$dir" && ctest --output-on-failure -j "$JOBS")
}

CHAOS_FILTER='ChaosTest|ChaosSmpTest|ClusterChaosTest|FaultPlanTest|InjectorTest|FaultyStoreTest|SwitchFaultTest|DeviceFaultTest|HvdCrashTest|SnapshotTornWriteTest'
# Everything that drives a multi-vCPU guest: the IPI/TLB-shootdown gauntlet,
# the cross-engine SMP differential matrix, SMP migration/snapshot/chaos, and
# the gang-scheduling unit tests.
SMP_FILTER='SmpTest|FuzzDiffSmpTest|MigrateSmpTest|ChaosSmpTest|GangSchedulerTest|StagedExecutionTest'

stage "plain build + tests"
run_suite build

stage "tests under HYPERION_AUDIT=1"
(cd build && HYPERION_AUDIT=1 ctest --output-on-failure -j "$JOBS")

stage "chaos: seeded fault-injection sweeps under audit"
(cd build && HYPERION_AUDIT=1 ctest -R "$CHAOS_FILTER" --output-on-failure -j "$JOBS")

stage "SMP suites under audit with a 4-thread worker pool"
# The audit stage already ran these serially; this rerun pins that per-vCPU
# TLB audits, IPI accounting, and the shootdown protocol stay green when
# same-VM lanes execute on a real worker pool.
(cd build && HYPERION_AUDIT=1 HYPERION_WORKERS=4 ctest -R "$SMP_FILTER" --output-on-failure -j "$JOBS")

if [ "$FAST" = "0" ]; then
  stage "AddressSanitizer (suite + chaos sweeps)"
  run_suite build-asan -DHYPERION_SANITIZE=address

  stage "UndefinedBehaviorSanitizer (suite + chaos sweeps)"
  run_suite build-ubsan -DHYPERION_SANITIZE=undefined

  stage "ThreadSanitizer (HYPERION_WORKERS=4, staged-core suites)"
  # The filter covers everything that exercises the worker pool end to end:
  # the host run loop and its staging buffers (Host/Smp/Staged/WorkerPool),
  # VM teardown concurrent with in-flight events (DestroyVm), the migration +
  # fault-injection paths whose shared state is queried from worker threads,
  # the cluster suites that run a whole fleet on one shared pool, and the
  # NIC/switch suites that drive the TxStage and FrameBuf release paths, and
  # the frame pool, whose recycle stack is shared by concurrent Allocates,
  # and the snapshot, fork and dirty-log suites, whose guest stores mark the
  # dirty-log cursors from execute lanes, and the KSM suite, whose scans
  # read frames and remap pages at barriers between multi-threaded rounds.
  # HYPERION_WORKERS=4 overrides the serial default so the pool genuinely
  # runs multi-threaded even for configs that leave worker_threads unset.
  TSAN_FILTER='HostVmTest|SmpTest|DirtyLogTest|SnapshotTest|ForkTest|KsmTest|FuzzDiffSmpTest|SchedulingTest|StagedExecutionTest|DestroyVmTest|WorkerPoolTest|MigrationTest|MigrateIoTest|MigrateStateTest|MigrateSmpTest|ChaosTest|ChaosSmpTest|FaultPlanTest|InjectorTest|HvdCrashTest|ClusterTest|ClusterStagedTest|ClusterChaosTest|VirtioNetTest|SwitchBurstTest|EmuNetTest|FramePoolTest'
  cmake -B build-tsan -S . -DHYPERION_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  (cd build-tsan && HYPERION_WORKERS=4 ctest -R "$TSAN_FILTER" --output-on-failure -j "$JOBS")
else
  STAGE=$((STAGE + 3))
  echo "=== sanitizers skipped (--fast) ==="
fi

stage "static staging discipline: negative-compile + thread-safety"
# The negative-compile tests already ran inside the first stage's ctest;
# rerunning them by name here keeps the discipline visible as its own gate
# and fails fast when someone weakens a token signature.
(cd build && ctest -R '^negcompile\.' --output-on-failure)
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DHYPERION_THREAD_SAFETY=ON >/dev/null
  cmake --build build-tsa -j "$JOBS"
else
  echo "thread-safety: clang++ not found; -Wthread-safety analysis skipped"
fi

stage "lint"
tools/run_lint.sh build

stage "perf smoke: hot DBT vs interpreter; tier-2 vs tier-1; net data plane"
cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-perf -j "$JOBS" --target bench_exec bench_net bench_cluster bench_migration
# --benchmark_min_time takes a bare seconds value (no "s" suffix). Ratios are
# computed from per-benchmark medians of 3 repetitions, and the stage retries
# once on failure, so a single noisy sample on an oversubscribed shared
# runner cannot fail the build on its own. Two gates on the hot compute
# kernel: the full DBT must clear 2x the interpreter (steady-state margin is
# ~4x), and the tier-2 optimizer must clear 1.10x the tier-1-only DBT
# (steady-state margin is ~1.4x) — the optimizer has to pay for itself.
perf_smoke() {
  build-perf/bench/bench_exec \
    --benchmark_filter='BM_InterpreterHot|BM_DbtHot|BM_DbtTier1Hot' \
    --benchmark_min_time=0.2 --benchmark_repetitions=3 \
    --benchmark_format=json >build-perf/perf_smoke.json
  python3 - build-perf/perf_smoke.json <<'EOF'
import json, sys, statistics
reps = {}
for b in json.load(open(sys.argv[1]))["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    reps.setdefault(b["name"].split("/")[0], []).append(b["guest_mips"])
interp = statistics.median(reps["BM_InterpreterHot"])
tier1 = statistics.median(reps["BM_DbtTier1Hot"])
tier2 = statistics.median(reps["BM_DbtHot"])
ratio = tier2 / interp
tier_ratio = tier2 / tier1
print(f"perf smoke: interpreter {interp:.1f} MIPS, dbt tier-1 {tier1:.1f} MIPS, "
      f"dbt tier-2 {tier2:.1f} MIPS; dbt/interp {ratio:.2f}x (floor 2.0), "
      f"tier-2/tier-1 {tier_ratio:.2f}x (floor 1.10)")
sys.exit(0 if ratio >= 2.0 and tier_ratio >= 1.10 else 1)
EOF
}
if ! perf_smoke; then
  echo "perf smoke: ratio below threshold once; retrying to absorb runner noise"
  perf_smoke
fi

# Net data-plane gate: bench_net measures simulated time, so the numbers are
# bit-identical run to run — one run, no retry. Enforces the batched path's
# reason to exist: >=3x the per-frame seed throughput with <50 interrupts
# per 1k frames at the 256-byte payload point.
build-perf/bench/bench_net --gate | tee build-perf/bench_net_gate.txt
python3 - build-perf/bench_net_gate.txt <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"gate: perframe_fps=(\S+) batched_fps=(\S+) ratio=(\S+) "
              r"batched_intr_per_1k=(\S+)", text)
if not m:
    print("net gate: summary line missing from bench_net output")
    sys.exit(1)
ratio, intr = float(m.group(3)), float(m.group(4))
print(f"net gate: batched/per-frame ratio {ratio:.2f}x (floor 3.0), "
      f"{intr:.1f} interrupts per 1k batched frames (ceiling 50)")
sys.exit(0 if ratio >= 3.0 and intr < 50.0 else 1)
EOF

stage "cluster gate: fleet lifecycle, worker-count bit-identity"
# Deterministic like the net gate: simulated time, fixed scenario, one run.
# The binary itself replays the scenario at 0 and 4 workers and compares
# digests; the parser enforces conservation and reconciliation.
build-perf/bench/bench_cluster --gate | tee build-perf/bench_cluster_gate.txt
python3 - build-perf/bench_cluster_gate.txt <<'EOF'
import re, sys
text = open(sys.argv[1]).read()
m = re.search(r"gate: vms=(\d+) lost=(\d+) migrations=(\d+) reconciled=(\d+) "
              r"determinism=(\S+)", text)
if not m:
    print("cluster gate: summary line missing from bench_cluster output")
    sys.exit(1)
vms, lost, migrations, reconciled, det = m.groups()
ok = int(lost) == 0 and int(migrations) > 0 and reconciled == migrations and det == "ok"
print(f"cluster gate: {vms} guests, {lost} lost, {migrations} migrations "
      f"({reconciled} reconciled), determinism {det}")
sys.exit(0 if ok else 1)
EOF

stage "sim digests: hvbench workloads and bench_migration match tools/sim_digests.txt"
# The benchmark's workloads double as a whole-system behaviour oracle: every
# simulated input is seed-derived, so the digest changes only when simulated
# behaviour does. bench_migration prints simulated time only, so its whole
# output is pinned the same way.
for workload in fleet compute lifecycle; do
  out=$(python3 hvbench/run.py --workload "$workload" --seed 1 --seconds 0)
  got=$(printf '%s\n' "$out" | sed -n 's/^sim_digest //p')
  want=$(awk -v w="$workload" '$1 == w { print $2 }' tools/sim_digests.txt)
  if [ -z "$want" ] || [ "$got" != "$want" ]; then
    echo "sim digest: $workload printed '$got', tools/sim_digests.txt has '$want'"
    exit 1
  fi
  echo "sim digest: $workload $got (matches)"
done
got=$(build-perf/bench/bench_migration | sha256sum | cut -d' ' -f1)
want=$(awk '$1 == "bench_migration" { print $2 }' tools/sim_digests.txt)
if [ -z "$want" ] || [ "$got" != "$want" ]; then
  echo "sim digest: bench_migration output hashes to '$got', tools/sim_digests.txt has '$want'"
  exit 1
fi
echo "sim digest: bench_migration $got (matches)"

echo "ci: all stages passed"
