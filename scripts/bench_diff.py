#!/usr/bin/env python3
"""Compare two hlp-bench-v1 JSON reports for metric drift.

Usage: bench_diff.py BASELINE.json CURRENT.json

The harness is deterministic: for matching meta knobs (width, vectors,
variants, fast, library fingerprint), every Sec. 6 metric must be
bit-identical between runs, whatever the worker count or cache
temperature.  This script fails (exit 1) on ANY non-identical value in
the deterministic sections:

  - designs:  per-(bench, binder) power/clock/LUT/mux/toggle metrics
  - bind:     per-bench binder iteration counts (not wall clock)
  - summary:  the Table 3 / Figure 3 averages
  - static_estimator.rows:  per-bench cycles, sim_toggles,
              static_toggles and rel_error — the 1000-vector Sim.run
              and the static analyzer on the same mapped network

Wall-clock fields (hlp_seconds, phases[].seconds, total_seconds, the
static rows' sim_seconds / static_seconds / speedup and the sweep
speedup), the SA-table hit counters (cache-temperature dependent) and
meta.jobs are informational and never compared.  A meta-knob mismatch
is an error: the comparison would be meaningless.
"""

import json
import sys

META_KEYS = ("width", "vectors", "variants", "fast", "lib_fingerprint")
DESIGN_KEY = ("bench", "binder")
DESIGN_METRICS = (
    "power_mw",
    "clock_ns",
    "luts",
    "largest_mux",
    "mux_length",
    "toggle_mhz",
)
STATIC_METRICS = ("cycles", "sim_toggles", "static_toggles", "rel_error")


def die(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"{path}: {e}")
    if doc.get("schema") != "hlp-bench-v1":
        die(f"{path}: unexpected schema {doc.get('schema')!r}")
    return doc


def main():
    if len(sys.argv) != 3:
        die(f"usage: {sys.argv[0]} BASELINE.json CURRENT.json")
    base_path, cur_path = sys.argv[1], sys.argv[2]
    base, cur = load(base_path), load(cur_path)

    failures = []

    for key in META_KEYS:
        b, c = base["meta"].get(key), cur["meta"].get(key)
        if b != c:
            die(f"meta mismatch on {key!r}: {b!r} vs {c!r} — "
                "the runs are not comparable")

    def index(doc, path):
        table = {}
        for row in doc["designs"]:
            table[tuple(row[k] for k in DESIGN_KEY)] = row
        return table

    b_designs = index(base, base_path)
    c_designs = index(cur, cur_path)
    for key in sorted(set(b_designs) | set(c_designs)):
        name = "/".join(key)
        if key not in b_designs:
            failures.append(f"designs[{name}]: only in {cur_path}")
            continue
        if key not in c_designs:
            failures.append(f"designs[{name}]: only in {base_path}")
            continue
        for metric in DESIGN_METRICS:
            b, c = b_designs[key][metric], c_designs[key][metric]
            if b != c:
                failures.append(
                    f"designs[{name}].{metric}: {b!r} != {c!r}")

    b_bind = {row["bench"]: row for row in base["bind"]}
    c_bind = {row["bench"]: row for row in cur["bind"]}
    for bench in sorted(set(b_bind) | set(c_bind)):
        if bench not in b_bind or bench not in c_bind:
            failures.append(f"bind[{bench}]: present in only one report")
            continue
        b, c = b_bind[bench]["iterations"], c_bind[bench]["iterations"]
        if b != c:
            failures.append(f"bind[{bench}].iterations: {b} != {c}")

    for key in sorted(set(base["summary"]) | set(cur["summary"])):
        b, c = base["summary"].get(key), cur["summary"].get(key)
        if b != c:
            failures.append(f"summary.{key}: {b!r} != {c!r}")

    b_static = {row["bench"]: row for row in base["static_estimator"]["rows"]}
    c_static = {row["bench"]: row for row in cur["static_estimator"]["rows"]}
    for bench in sorted(set(b_static) | set(c_static)):
        if bench not in b_static or bench not in c_static:
            failures.append(
                f"static_estimator.rows[{bench}]: present in only one report")
            continue
        for metric in STATIC_METRICS:
            b, c = b_static[bench][metric], c_static[bench][metric]
            if b != c:
                failures.append(
                    f"static_estimator.rows[{bench}].{metric}: {b!r} != {c!r}")

    if failures:
        print(f"bench_diff: {cur_path} drifted from {base_path}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)

    n = len(set(b_designs))
    print(f"bench_diff: OK — {n} designs, {len(b_bind)} bind rows, "
          f"{len(base['summary'])} summary metrics and {len(b_static)} "
          f"static rows bit-identical")


if __name__ == "__main__":
    main()
