#!/usr/bin/env bash
# Records one point of the performance trajectory: hvbench run on a parent
# checkout and a change checkout, in alternating order, with identical
# settings, summarized into BENCH_<pr>.json.
#
#   tools/bench_record.sh PARENT_DIR CHANGE_DIR PR WORKLOAD:SEED...
#
#   tools/bench_record.sh ../parent . 42 fleet:1 compute:1 lifecycle:1 lifecycle:90210
#
# Both directories must be git checkouts (make them with `git clone` and
# `git checkout REV`); each side is labelled by `git describe --always
# --dirty` of its checkout, and the tool stops if either has none.
#
# For each WORKLOAD:SEED it first runs both sides once at --seconds 0 (which
# builds each side and yields its sim_digest) and stops unless the digests
# are equal, since a timing comparison means nothing on different work. Then
# it runs 10 pairs of `python3 hvbench/run.py --workload W --seed SEED
# --seconds S`, S being BENCHMARK.json's run_seconds. Pair i runs the parent
# first when i is even and the change first when i is odd, so slow stretches
# of a shared machine fall on both sides. Each side builds into its own
# CARGO_TARGET_DIR (<side>/.bench_build), and every run's digest must equal
# the warm-up's.
#
# The output, BENCH_<pr>.json in the current directory, holds per workload
# and end-to-end metric of BENCHMARK.json: each side's median and quartiles,
# the change's relative median delta (positive = better), the number of
# pairs the change won, whether the median moved by more than the parent's
# interquartile range, whether it stayed within the metric's bound, and
# whether it is unresolved: the parent's interquartile range, relative to
# its median, is wider than the bound and not every change run beat every
# parent run, so the runs spread too widely to call the metric unchanged.
# It also keeps every raw run. Raw run logs go to BENCH_<pr>.json.d/.
set -euo pipefail

PAIRS=10
if [[ $# -lt 4 ]]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR PR WORKLOAD:SEED..." >&2
  exit 2
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
PR="$3"
shift 3
for spec in "$@"; do
  if [[ "$spec" != *:* ]]; then
    echo "expected WORKLOAD:SEED, got '$spec'" >&2
    exit 2
  fi
done
for dir in "$PARENT" "$CHANGE"; do
  if ! git -C "$dir" rev-parse --verify -q HEAD >/dev/null; then
    echo "$dir is not a git checkout with a commit; it could not be labelled" >&2
    exit 2
  fi
done
OUT="BENCH_${PR}.json"
LOGS="${OUT}.d"
mkdir -p "$LOGS"
SECONDS_ARG=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' \
  "$CHANGE/BENCHMARK.json")

# run SIDE_NAME DIR WORKLOAD SEED SECONDS LOG: one hvbench run; its last
# stdout line (the JSON result) lands in LOG.
run() {
  local name="$1" dir="$2" workload="$3" seed="$4" seconds="$5" log="$6"
  echo "  $name $workload seed $seed ${seconds}s" >&2
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
    python3 hvbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds") \
    >"$log" 2>&1 || { echo "run failed, see $log" >&2; exit 1; }
}

digest() { awk '$1 == "sim_digest" {print $2}' "$1"; }

for spec in "$@"; do
  workload="${spec%%:*}"
  seed="${spec##*:}"
  tag="${workload}-${seed}"
  echo "== $tag: warm-up and digest check" >&2
  run parent "$PARENT" "$workload" "$seed" 0 "$LOGS/$tag-parent-warmup.log"
  run change "$CHANGE" "$workload" "$seed" 0 "$LOGS/$tag-change-warmup.log"
  want=$(digest "$LOGS/$tag-parent-warmup.log")
  got=$(digest "$LOGS/$tag-change-warmup.log")
  if [[ -z "$want" || "$want" != "$got" ]]; then
    echo "sim_digest differs on $tag: parent '$want', change '$got'" >&2
    exit 1
  fi
  for ((i = 0; i < PAIRS; i++)); do
    echo "== $tag: pair $((i + 1))/$PAIRS" >&2
    if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      dir="$PARENT"
      [[ "$side" == change ]] && dir="$CHANGE"
      log="$LOGS/$tag-$side-$i.log"
      run "$side" "$dir" "$workload" "$seed" "$SECONDS_ARG" "$log"
      if [[ "$(digest "$log")" != "$want" ]]; then
        echo "sim_digest of $log differs from the warm-up's $want" >&2
        exit 1
      fi
    done
  done
done

python3 - "$CHANGE/BENCHMARK.json" "$LOGS" "$OUT" "$PAIRS" "$SECONDS_ARG" \
  "$PARENT" "$CHANGE" "$@" <<'EOF'
import json, os, platform, statistics, subprocess, sys

spec_path, logs, out, pairs, seconds, parent, change = sys.argv[1:8]
runs_wanted = sys.argv[8:]
pairs = int(pairs)
spec = json.load(open(spec_path))


def result(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.startswith("{")]
    return json.loads(lines[-1])


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def rev(path):
    return subprocess.run(["git", "-C", path, "describe", "--always", "--dirty"],
                          capture_output=True, text=True, check=True).stdout.strip()


report = {
    "parent": rev(parent),
    "change": rev(change),
    "pairs": pairs,
    "run_seconds": float(seconds),
    "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
    "workloads": [],
}
for item in runs_wanted:
    workload, seed = item.split(":")
    tag = f"{workload}-{seed}"
    with open(os.path.join(logs, f"{tag}-parent-warmup.log")) as f:
        digest = next(l.split()[1] for l in f if l.startswith("sim_digest "))
    raw = []
    for i in range(pairs):
        pair = {"order": "parent-first" if i % 2 == 0 else "change-first"}
        for side in ("parent", "change"):
            r = result(os.path.join(logs, f"{tag}-{side}-{i}.log"))
            assert r["correct"], f"{tag} pair {i} {side}: correct is false"
            pair[side] = {k: v["value"] for k, v in r["metrics"].items()}
            pair[side]["failed"] = r["failed"]
            pair[side]["attempted"] = r["attempted"]
        raw.append(pair)
    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        if name not in raw[0]["parent"]:
            continue
        p = [r["parent"][name] for r in raw]
        c = [r["change"][name] for r in raw]
        ps, cs = quartiles(p), quartiles(c)
        base = ps["median"]
        # Relative change of the median, signed so that positive is better.
        delta = 0.0 if base == 0 else (cs["median"] - base) / base * (1 if higher else -1)
        wins = sum(1 for a, b in zip(p, c) if (b > a if higher else b < a))
        spread = 0.0 if base == 0 else (ps["q3"] - ps["q1"]) / abs(base)
        all_beat = min(c) > max(p) if higher else max(c) < min(p)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": ps,
            "change": cs,
            "delta": delta,
            "change_wins": wins,
            "beyond_parent_iqr": abs(cs["median"] - base) > ps["q3"] - ps["q1"],
            "within_bound": delta >= -m["bound"],
            "unresolved": spread > m["bound"] and not all_beat,
        }
    report["workloads"].append({
        "workload": workload,
        "seed": int(seed),
        "sim_digest": digest,
        "failed": {s: sum(r[s]["failed"] for r in raw) for s in ("parent", "change")},
        "attempted": {s: sum(r[s]["attempted"] for r in raw) for s in ("parent", "change")},
        "metrics": metrics,
        "runs": raw,
    })

with open(out, "w") as f:
    json.dump(report, f, indent=1)
    f.write("\n")
for w in report["workloads"]:
    print(f"{w['workload']} seed {w['seed']} (sim_digest {w['sim_digest']})")
    for name, m in w["metrics"].items():
        flag = "" if m["within_bound"] else "  OUT OF BOUND"
        flag += "  UNRESOLVED" if m["unresolved"] else ""
        print(f"  {name:18s} parent {m['parent']['median']:.6g} change {m['change']['median']:.6g}"
              f" delta {m['delta']:+.1%} wins {m['change_wins']}/{pairs}"
              f"{' beyond-IQR' if m['beyond_parent_iqr'] else ''}{flag}")
print(f"wrote {out}")
EOF
