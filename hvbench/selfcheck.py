#!/usr/bin/env python3
"""Self-check of the Hyperion benchmark.

    python3 hvbench/selfcheck.py [--seed N] [--seconds S] [--pairs P]

Run from the root of a checkout (it builds like run.py). It checks that:
  1. sim_digest is identical across two runs of one seed, on every workload;
  2. fleet's sim_digest is identical at worker_threads 0 and nproc - 1;
  3. perturbing one simulated input (--perturb) changes every workload's
     sim_digest, so the check can fail;
  4. every per-layer metric is nonzero on each workload metrics.json lists
     under "emitted_on" (the workloads where its layer runs);
and it reports the tracing overhead per workload: the traced runs'
wall_s_per_sim_ms and ops_per_s against untraced runs of the same seed,
alternating, since the host's speed drifts between runs.
Exits 1 if any check fails.
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as hv  # noqa: E402

WORKLOADS = ["fleet", "compute", "lifecycle"]


def digests(summary):
    return {r["digest"] for r in summary["reps"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args()
    with open(os.path.join(hv.BENCH_DIR, "metrics.json")) as f:
        spec = json.load(f)
    driver = hv.build()
    failures = []

    def check(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    nproc = os.cpu_count() or 1
    for wl in WORKLOADS:
        a, _ = hv.run_driver(driver, wl, args.seed, 0, False)
        b, _ = hv.run_driver(driver, wl, args.seed, 0, False)
        same = digests(a) | digests(b)
        check(len(same) == 1, f"{wl}: sim_digest repeats across runs of seed {args.seed}"
                              f" ({', '.join(sorted(same))})")
        p, _ = hv.run_driver(driver, wl, args.seed, 0, False, ("--perturb",))
        check(digests(p).isdisjoint(same), f"{wl}: a perturbed input changes sim_digest"
                                           f" ({', '.join(sorted(digests(p)))})")
        if wl == "fleet":
            serial, _ = hv.run_driver(driver, wl, args.seed, 0, False, ("--workers", "0"))
            wide, _ = hv.run_driver(driver, wl, args.seed, 0, False,
                                    ("--workers", str(max(nproc - 1, 0))))
            both = digests(serial) | digests(wide)
            check(len(both) == 1, f"fleet: sim_digest identical at workers 0 and {nproc - 1}")

    print(f"tracing overhead: traced / untraced - 1 over {args.pairs} alternating pairs"
          " of runs (same seed and run length), median and range:")
    for wl in WORKLOADS:
        ratios = {"wall_s_per_sim_ms": [], "ops_per_s": []}
        for _ in range(args.pairs):
            plain, _ = hv.run_driver(driver, wl, args.seed, args.seconds, False)
            traced, path = hv.run_driver(driver, wl, args.seed, args.seconds, True)
            e_plain, _ = hv.end_to_end(plain)
            e_traced, _ = hv.end_to_end(traced)
            for m, xs in ratios.items():
                xs.append(hv.ratio(e_traced[m], e_plain[m]) - 1)
        for m, xs in ratios.items():
            print(f"  {wl:9s} {m:18s} {hv.median(xs):+.1%} (from {min(xs):+.1%} to {max(xs):+.1%})")
        layer = hv.per_layer(hv.load_spans(path))
        for m in spec["per_layer"]:
            if wl in m["emitted_on"]:
                check(layer[m["name"]] != 0, f"{wl}: {m['name']} = {layer[m['name']]:.6g}")
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
