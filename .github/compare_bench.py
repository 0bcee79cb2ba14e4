#!/usr/bin/env python3
"""Compare pairs of Google Benchmark JSON dumps for the CI perf gate.

Usage:
  compare_bench.py TOLERANCE PARENT_1.json CANDIDATE_1.json [PARENT_2.json CANDIDATE_2.json ...]

Takes pairs of single-repetition dumps, each pair run back to back (the
CI job runs each case alone and alternates which side runs first),
matches the benchmarks of a pair by name, and takes each case's
candidate/parent ratio of FIELD_TIME (process CPU time) per pair. A case
fails when the median of its per-pair ratios exceeds 1 + TOLERANCE (a
fraction, e.g. 0.03 for 3%). Host drift between pairs cancels within
each pair, and no single noisy pair can fail the gate. Benchmarks
present on only one side of a pair are reported and skipped, so adding
or removing a case does not trip the gate.
"""

import json
import statistics
import sys


# The per-pair time the gate compares: process CPU time, which told
# equal code apart more often than real time on the shared 4-vCPU host
# (EXPERIMENTS.md, "one binding table and one scan record").
FIELD_TIME = "cpu_time"


def iteration_times(path):
    with open(path) as f:
        text = f.read()
    # A run whose filter matches no case (one the other side lacks) prints
    # no JSON at all.
    if not text.strip():
        return {}
    data = json.loads(text)
    return {b["name"]: float(b[FIELD_TIME])
            for b in data["benchmarks"]
            if b.get("run_type", "iteration") == "iteration"}


def check_pairs(argv):
    tolerance = float(argv[0])
    paths = argv[1:]
    if not paths or len(paths) % 2 != 0:
        print("expected PARENT.json CANDIDATE.json pairs")
        return 2
    ratios = {}
    for parent_path, candidate_path in zip(paths[0::2], paths[1::2]):
        parent = iteration_times(parent_path)
        candidate = iteration_times(candidate_path)
        for name in sorted(set(parent) | set(candidate)):
            if name not in parent or name not in candidate:
                side = "parent" if name in parent else "candidate"
                print(f"SKIP {name}: only in the {side} run of a pair")
                continue
            if parent[name] > 0:
                ratios.setdefault(name, []).append(
                    candidate[name] / parent[name])

    failed = False
    for name, values in sorted(ratios.items()):
        ratio = statistics.median(values)
        verdict = "OK"
        if ratio > 1.0 + tolerance:
            verdict = "REGRESSION"
            failed = True
        spread = ", ".join(f"{(r - 1.0) * 100.0:+.1f}" for r in values)
        print(f"{verdict} {name}: median {FIELD_TIME} ratio "
              f"{(ratio - 1.0) * 100.0:+.2f}% over {len(values)} pairs "
              f"[{spread}]")

    if failed:
        print(f"perf gate failed: median per-pair {FIELD_TIME} ratio "
              f"regressed more than {tolerance * 100.0:.0f}% vs parent")
        return 1
    return 0


def main():
    return check_pairs(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
