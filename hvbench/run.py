#!/usr/bin/env python3
"""Hyperion benchmark: builds the driver, runs one workload, prints metrics.

    python3 hvbench/run.py --workload fleet|compute|lifecycle --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
hvbench/ (and the src/ libraries it links) into .bench_build, or into
$CARGO_TARGET_DIR when that is set. With --trace 0 it prints every
end-to-end metric; with --trace 1 it runs the same workload with spans on
and prints every per-layer metric, computed from the span file the driver
writes. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Metric names, units and
meanings are in hvbench/metrics.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PAGE_MIB = 4096 / (1 << 20)
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures (once) and builds the driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("hvbench: configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr).returncode != 0:
        sys.exit("hvbench: build failed")
    return os.path.join(out, "hvbench_driver")


def run_driver(driver, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns (summary dict, trace path or None)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", *extra]
    trace_path = None
    if trace:
        trace_path = os.path.join(build_dir(), f"trace-{workload}-{seed}.jsonl")
        cmd += ["--trace-out", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"hvbench: driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), trace_path


def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def tail(samples):
    """Highest percentile with at least 10 samples beyond it: (value, pct)."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return (xs[-1] if xs else 0.0), 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def fastest(rows):
    """Per position, the minimum over repetitions of that position's value."""
    return [min(col) for col in zip(*rows)]


def end_to_end(summary):
    # Every repetition makes the same timed calls in the same order, so each
    # call is timed once per repetition. A call's cost is the fastest of its
    # timings: co-tenants of a shared host slow whole stretches of seconds by
    # up to 1.7x, and the minimum keeps them out where a median would not.
    reps = summary["reps"]
    calls = fastest([r["call_ms"] for r in reps])
    ops = fastest([[ms for _, ms in r["ops"]] for r in reps])
    timed_s = sum(calls) / 1000
    sim_ms = median([r["sim_ms"] for r in reps])
    instructions = median([r["instructions"] for r in reps])
    tail_ms, tail_pct = tail(ops)
    metrics = {
        "setup_s": min(r["setup_s"] for r in reps),
        "wall_s_per_sim_ms": ratio(timed_s, sim_ms),
        "guest_mips": ratio(instructions, timed_s) / 1e6,
        "peak_rss_mib": summary["peak_rss_kib"] / 1024,
        "ops_per_s": ratio(len(ops), timed_s),
        "op_ms_p50": median(ops),
        "op_ms_tail": tail_ms,
    }
    blackout = [b for r in reps for b in r["blackout_ms_sim"]]
    info = {
        "op_ms_tail percentile": f"p{tail_pct:.2f} of {len(ops)} operations per repetition,"
                                 f" each the fastest of {len(reps)} repetitions",
        "blackout_ms_sim": f"{median(blackout):.6g} ms (median of {len(blackout)} pre-copy"
                           " migrations)" if blackout else "n/a (no migrations)",
        "net_frames_per_sim_ms": f"{median([ratio(r['net_frames'], r['sim_ms']) for r in reps]):.6g}",
    }
    return metrics, info


def verdict(summary):
    """(correct, attempted, failed, digests) over all repetitions."""
    reps = summary["reps"]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:  # every repetition simulates the same inputs
        attempted += 1
        failed += 1
    for r in reps:
        for f in r["failures"]:
            print(f"FAILED: {f}")
    return bool(reps) and failed == 0, max(attempted, 1), failed, digests


# --- Per-layer metrics from spans ------------------------------------------------


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def dur_ms(s):
    return (s["end_us"] - s["start_us"]) / 1000.0


def self_times(spans):
    """Per span name: (count, total ms, self ms); self excludes child spans."""
    child_ms = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ms[s["parent"]] = child_ms.get(s["parent"], 0.0) + dur_ms(s)
    table = {}
    for s in spans:
        c, total, own = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (c + 1, total + dur_ms(s), own + dur_ms(s) - child_ms.get(s["id"], 0.0))
    return table


def per_layer(spans):
    by = {}
    for s in spans:
        by.setdefault(s["name"], []).append(s)
    reps = sorted({s["rep"] for s in spans if s["name"] == "rep"}) or [0]

    def named(name, **match):
        return [s for s in by.get(name, [])
                if all(s["attrs"].get(k) == v for k, v in match.items())]

    def total(ss, attr):
        return sum(s["attrs"].get(attr, 0.0) for s in ss)

    def per_rep(ss, attr):
        """Median over repetitions of the attribute's per-repetition sum."""
        return median([total([s for s in ss if s["rep"] == r], attr) for r in reps])

    def med_ms(ss):
        return median([dur_ms(s) for s in ss])

    # Host-time ratios use RunFor chunks only; counts use every timed call,
    # since DRS ticks and migrations also advance the simulation.
    run = by.get("core.RunFor", [])
    region = [s for s in spans if "sim_ms" in s["attrs"]]
    run_ms = sum(dur_ms(s) for s in run)

    def count(attr):
        return total(region, attr)

    instr = count("instructions")
    full = named("snapshot.SaveVm", incremental=0)
    migr = by.get("migrate.PreCopyMigrate", []) + by.get("migrate.PostCopyMigrate", [])
    reports = by.get("migrate.report", [])
    ticks = by.get("cluster.DrsTick", [])
    checks = by.get("check", [])
    clones = by.get("snapshot.CloneVm", [])
    rx = count("net_rx_frames")
    frames_peak = median([max([s["attrs"].get("frames_used", 0.0) for s in region
                               if s["rep"] == r] or [0.0]) for r in reps])
    return {
        "core.run_s": med_ms(run) / 1000,
        "core.rounds": per_rep(region, "rounds"),
        "core.us_per_round": ratio(run_ms * 1000, total(run, "rounds")),
        "core.slices_per_round": ratio(count("slices"), count("rounds")),
        "core.add_host_ms": med_ms(by.get("core.AddHost", [])),
        "core.create_vm_ms": med_ms(by.get("core.CreateVm", [])),
        "guest.build_ms": med_ms(by.get("guest.Build", [])),
        "sched.context_switches": per_rep(region, "context_switches"),
        "sched.idle_picks": per_rep(region, "idle_picks"),
        "sched.steal_share_sim": ratio(count("steal_cycles"),
                                       count("busy_cycles") + count("steal_cycles")),
        "cpu.instructions": per_rep(region, "instructions"),
        "cpu.ns_per_instr": ratio(run_ms * 1e6, total(run, "instructions")),
        "cpu.blocks_translated": per_rep(region, "blocks_translated"),
        "cpu.chain_hit_ratio": ratio(count("chain_hits"), count("block_executions")),
        "cpu.fastpath_hit_ratio": ratio(count("fastpath_hits"),
                                        count("fastpath_hits") + count("fastpath_misses")),
        "cpu.tier2_exec_share": ratio(count("tier2_executions"), count("trace_executions")),
        "cpu.deopt_ratio": ratio(count("deopts"), count("tier2_executions")),
        "cpu.exits_per_minstr": ratio(count("exits") * 1e6, instr),
        "cpu.persist_hit_ratio": ratio(total(clones, "persist_hits"),
                                       total(clones, "persist_hits") + total(clones, "persist_misses")),
        "mmu.walks_per_kinstr": ratio(count("mmu_walks") * 1000, instr),
        "mmu.walk_steps": per_rep(region, "mmu_walk_steps"),
        "mmu.pt_write_traps": per_rep(region, "mmu_pt_write_traps"),
        "mmu.shadow_syncs": per_rep(region, "mmu_shadow_syncs"),
        "mem.frames_used": frames_peak,
        "mem.cow_breaks": per_rep(region, "cow_breaks") + per_rep(by.get("op.cow_write", []),
                                                                  "host_cow_breaks"),
        "snapshot.save_ms": med_ms(full),
        "snapshot.save_incr_ms": med_ms(named("snapshot.SaveVm", incremental=1)),
        "snapshot.clone_ms": med_ms(clones),
        "snapshot.fork_ms": med_ms(by.get("snapshot.ForkVm", [])),
        "snapshot.save_mib_per_s": ratio(total(full, "pages_total") * PAGE_MIB,
                                         sum(dur_ms(s) for s in full) / 1000),
        "snapshot.zero_page_share": ratio(total(full, "pages_zero"), total(full, "pages_total")),
        "snapshot.bytes": median([s["attrs"]["bytes"] for s in full]),
        "migrate.precopy_ms": med_ms(by.get("migrate.PreCopyMigrate", [])),
        "migrate.postcopy_ms": med_ms(by.get("migrate.PostCopyMigrate", [])),
        "migrate.pages_per_s": ratio(total(reports, "pages_sent"),
                                     (sum(dur_ms(s) for s in migr) +
                                      sum(dur_ms(s) for s in ticks if s["attrs"].get("migrations")))
                                     / 1000),
        "migrate.resend_ratio": ratio(total(reports, "pages_sent"), total(reports, "vm_pages")),
        "migrate.rounds": median([s["attrs"]["rounds"] for s in reports
                                  if s["attrs"].get("precopy")]),
        "migrate.total_ms_sim": median([s["attrs"]["total_ms_sim"] for s in reports]),
        "migrate.blackout_ms_sim": median([s["attrs"]["downtime_ms_sim"] for s in reports
                                           if s["attrs"].get("precopy")]),
        "migrate.guest_run_share": ratio(total(migr, "instructions") *
                                         ratio(run_ms, total(run, "instructions")),
                                         sum(dur_ms(s) for s in migr)),
        "cluster.drs_tick_ms": med_ms(ticks),
        "cluster.drs_tick_moves": per_rep(ticks, "migrations") + per_rep(ticks, "evacuations"),
        "cluster.checkpoint_all_ms": med_ms(by.get("cluster.CheckpointAll", [])),
        "cluster.migrations": per_rep(checks, "migrations"),
        "cluster.failed_migrations": per_rep(checks, "failed_migrations"),
        "cluster.evacuations_lost": per_rep(checks, "evacuations_lost"),
        "fabric.frames_forwarded": per_rep(region, "fabric_forwarded"),
        "net.frames_per_sim_ms": ratio(rx, count("sim_ms")),
        "net.burst_share": ratio(count("net_burst_frames"), rx),
        "virtio.interrupts_per_kframe": ratio(count("virtio_interrupts") * 1000, rx),
        "virtio.kicks_per_kframe": ratio(count("virtio_kicks") * 1000, rx),
        "ksm.scan_ms": med_ms(by.get("ksm.ScanOnce", [])),
        "ksm.merge_ratio": ratio(total(by.get("ksm.ScanOnce", []), "pages_merged"),
                                 total(by.get("ksm.ScanOnce", []), "pages_scanned")),
    }


def load_units():
    with open(os.path.join(BENCH_DIR, "metrics.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["fleet", "compute", "lifecycle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    units = load_units()
    driver = build()
    summary, trace_path = run_driver(driver, args.workload, args.seed, args.seconds, args.trace)
    correct, attempted, failed, digests = verdict(summary)
    e2e, info = end_to_end(summary)
    print(f"workload {args.workload}, seed {args.seed}, {len(summary['reps'])} repetitions,"
          f" trace {args.trace}")
    print(f"sim_digest {' '.join(digests)}")
    print(f"failed_share {ratio(failed, attempted):.6g} ({failed} failed of {attempted} attempted)")
    for k, v in info.items():
        print(f"{k}: {v}")
    if args.trace:
        spans = load_spans(trace_path)
        table = self_times(spans)
        print("span self time (ms over the run): name count total self")
        for name, (count, tot, own) in sorted(table.items(), key=lambda kv: -kv[1][2])[:20]:
            print(f"  {name:28s} {count:7d} {tot:12.3f} {own:12.3f}")
        metrics = per_layer(spans)
    else:
        metrics = e2e
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
