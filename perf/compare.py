#!/usr/bin/env python3
"""Compare two sets of perf runs under the bounds in BENCHMARK.json.

Usage: compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run, named <workload>.<anything>.json,
whose last line is the result object `bash perf/bench.sh` prints
(`... --trace 0 | tail -n 1 > DIR/bind-mix.s3.json`).  Runs of a
workload are paired in file-name order, so name them so that pair i of
BASE ran next to pair i of NEW (alternating which side went first).

One row per (workload, end-to-end metric): each side's median and
quartiles, how many pairs NEW won, and a verdict:

  better      NEW won at least 9 in 10 of at least 10 pairs, and the
              medians differ by more than BASE's interquartile range
  worse       NEW's median is worse than BASE's by more than the bound,
              or NEW lost at least 9 in 10 of at least 10 pairs and the
              median change within a pair is worse than PAIRED_BOUND:
              the two runs of a pair share the host's slow phases, so a
              regression smaller than the bound still shows there
  unresolved  a side's spread (IQR / median) is wider than the bound,
              unless every NEW run beats every BASE run
  same        otherwise

Exits 1 on any `worse`, or when NEW has a higher failed fraction or more
runs with wrong outputs than BASE.  Uses only the standard library.
"""

import glob
import json
import os
import statistics
import sys

# Regression bound on the median change within pairs, which is far
# steadier than either side's median on a host whose speed drifts.
PAIRED_BOUND = 0.10


def die(msg):
    print(f"compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load_runs(directory, names):
    """Runs by workload; every run must carry the end-to-end `names`,
    which a --trace 1 run does not."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).split(".")[0]
        try:
            with open(path) as f:
                lines = [l for l in f.read().splitlines() if l.strip()]
            run = json.loads(lines[-1])
            missing = [n for n in names if n not in run["metrics"]]
        except (OSError, IndexError, KeyError, TypeError,
                json.JSONDecodeError) as e:
            die(f"{path}: not a result line: {e}")
        if missing:
            die(f"{path}: no {', '.join(missing)} (a --trace 1 run?)")
        runs.setdefault(workload, []).append(run)
    if not runs:
        die(f"{directory}: no <workload>.*.json runs")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, higher_better, bound):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1 if higher_better else -1
    pairs = list(zip(base, new))
    changes = [sign * (n - b) / b for b, n in pairs]
    wins = sum(1 for c in changes if c > 0)
    losses = sum(1 for c in changes if c < 0)
    gain = sign * (nm - bm) / bm
    if gain < -bound or (len(pairs) >= 10 and losses >= 0.9 * len(pairs)
                         and statistics.median(changes) < -PAIRED_BOUND):
        v = "worse"
    elif (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
          and gain > 0 and abs(nm - bm) > b3 - b1):
        v = "better"
    elif (max((b3 - b1) / bm, (n3 - n1) / nm) > bound
          and not all(sign * (n - b) > 0 for b in base for n in new)):
        v = "unresolved"
    else:
        v = "same"
    return (b1, bm, b3), (n1, nm, n3), wins, len(pairs), v


def fmt(q):
    return "/".join(f"{x:.4g}" for x in q)


def failure_stats(runs):
    frac = statistics.mean(r["failed"] / max(1, r["attempted"]) for r in runs)
    wrong = sum(1 for r in runs if not r["correct"])
    return frac, wrong


def main():
    args = sys.argv[1:]
    bench_path = "BENCHMARK.json"
    if "--benchmark" in args:
        i = args.index("--benchmark")
        bench_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 2:
        die("usage: compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]")
    with open(bench_path) as f:
        metrics = json.load(f)["end_to_end"]
    names = [m["name"] for m in metrics]
    base, new = load_runs(args[0], names), load_runs(args[1], names)

    bad = False
    print(f"{'workload':14} {'metric':22} {'base q1/med/q3':>32} "
          f"{'new q1/med/q3':>32} {'wins':>7}  verdict")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            n = [r["metrics"][name]["value"] for r in new[workload]]
            bq, nq, wins, pairs, v = verdict(
                b, n, m["better"] == "higher", m["bound"])
            print(f"{workload:14} {name:22} {fmt(bq):>32} {fmt(nq):>32} "
                  f"{wins:>3}/{pairs:<3}  {v}")
            bad |= v == "worse"
        (bf, bw), (nf, nw) = failure_stats(base[workload]), failure_stats(new[workload])
        print(f"{workload:14} {'failed_frac':22} {bf:>32.4g} {nf:>32.4g}")
        print(f"{workload:14} {'wrong_outputs (runs)':22} {bw:>32} {nw:>32}")
        if nf > bf or nw > bw:
            bad = True
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in {'BASE' if workload in base else 'NEW'}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
