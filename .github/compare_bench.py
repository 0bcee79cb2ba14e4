#!/usr/bin/env python3
"""Compare two Google Benchmark JSON dumps for the CI perf gate.

Usage:
  compare_bench.py TOLERANCE PARENT_1.json CANDIDATE_1.json [PARENT_2.json CANDIDATE_2.json ...]
  compare_bench.py --datapath CANDIDATE.json BUDGET [BASELINE.json TOLERANCE]
  compare_bench.py --kernels CANDIDATE.json MIN_SPEEDUP
  compare_bench.py --spill CANDIDATE.json [SLACK_UNITS]
  compare_bench.py --sharedscan CANDIDATE.json
  compare_bench.py --adaptive CANDIDATE.json [MAX_LONG_WALL_RATIO]

Default mode takes pairs of single-repetition dumps, each pair run back
to back (the CI job runs each case alone and alternates which side runs
first), matches the benchmarks of a pair by name, and takes each case's
candidate/parent ratio of FIELD_TIME (process CPU time) per pair. A case
fails when the median of its per-pair ratios exceeds 1 + TOLERANCE (a
fraction, e.g. 0.03 for 3%). Host drift between pairs cancels within
each pair, and no single noisy pair can fail the gate. Benchmarks
present on only one side of a pair are reported and skipped, so adding
or removing a case does not trip the gate.

--datapath mode gates micro_datapath's BENCH_datapath.json instead:
fails when the steady-state pipeline exceeds BUDGET heap allocations per
result tuple, when the iterator-range probe path allocated at all, or —
when a BASELINE dump from the parent commit is supplied — when the
pipeline wall regressed more than TOLERANCE.

--kernels mode gates micro_kernels' BENCH_kernels.json: for the filter
sweep and the probe sweep, the best batch speedup over the row-path
baseline among points with chunk_size >= 16 must reach MIN_SPEEDUP
(e.g. 2.0), and every vectorized point at any chunk size must report
zero steady-state heap allocations.

--spill mode gates ext_spilljoin's BENCH_spill.json: every budgeted
point must produce rows identical to its unbudgeted reference, every
quota high-water mark must stay within budget + SLACK_UNITS (default 64;
the slack covers the operators' bounded forced-progress overshoot), and
at least one point must have actually written spill bytes — otherwise
the sweep never exercised the budget and the gate is vacuous.

--sharedscan mode gates ext_sharedscan's BENCH_sharedscan.json: every
concurrency point's per-query results must be byte-identical between
the shared and solo modes (correctness is not retryable), shared-scan
batches must actually have formed at every point (else the window never
folded anything and the sweep is vacuous), and at the gate concurrency
the shared mode's QPS must strictly beat the solo mode's. QPS on shared
runners is noisy, so callers wrap the QPS part in a retry loop — a
correctness mismatch fails immediately regardless.

--adaptive mode gates ext_adaptive_sched's BENCH_adaptive.json: both
modes' results must match their references (not retryable), the
adaptive mode's short-query p95 and p99 must be strictly below the
static mode's, the long query's wall must stay within
MAX_LONG_WALL_RATIO (default 1.05) of the static run, and the
rebalancer must actually have parked and granted workers — otherwise
the run never reallocated anything and the comparison is vacuous.
"""

import json
import statistics
import sys


def check_datapath(argv):
    candidate_path, budget = argv[0], float(argv[1])
    with open(candidate_path) as f:
        candidate = json.load(f)
    pipeline = candidate["pipeline"]
    probe = candidate["probe"]

    failed = False
    per_tuple = float(pipeline["allocations_per_tuple"])
    verdict = "OK" if per_tuple <= budget else "OVER BUDGET"
    failed |= per_tuple > budget
    print(f"{verdict} allocations_per_tuple: {per_tuple:.3f} "
          f"(budget {budget:.3f})")

    probe_allocs = int(probe["probe_allocations"])
    verdict = "OK" if probe_allocs == 0 else "ALLOCATING"
    failed |= probe_allocs != 0
    print(f"{verdict} probe_allocations: {probe_allocs} (must be 0)")

    for name, allocs in sorted(candidate.get("kernels", {}).items()):
        allocs = int(allocs)
        verdict = "OK" if allocs == 0 else "ALLOCATING"
        failed |= allocs != 0
        print(f"{verdict} kernel {name}: {allocs} (must be 0)")

    if len(argv) >= 4:
        baseline_path, tolerance = argv[2], float(argv[3])
        with open(baseline_path) as f:
            baseline = json.load(f)
        base = float(baseline["pipeline"]["wall_seconds"])
        cand = float(pipeline["wall_seconds"])
        ratio = cand / base if base > 0 else float("inf")
        verdict = "OK" if ratio <= 1.0 + tolerance else "REGRESSION"
        failed |= ratio > 1.0 + tolerance
        print(f"{verdict} pipeline wall_seconds: baseline={base:.6f} "
              f"candidate={cand:.6f} ({(ratio - 1.0) * 100.0:+.2f}%)")

    if failed:
        print("datapath gate failed")
        return 1
    return 0


def check_kernels(argv):
    candidate_path, min_speedup = argv[0], float(argv[1])
    with open(candidate_path) as f:
        candidate = json.load(f)

    failed = False
    for sweep in ("filter", "probe"):
        points = candidate[sweep]["points"]
        gated = [p for p in points if int(p["chunk_size"]) >= 16]
        best = max(gated, key=lambda p: float(p["speedup"]))
        speedup = float(best["speedup"])
        verdict = "OK" if speedup >= min_speedup else "TOO SLOW"
        failed |= speedup < min_speedup
        print(f"{verdict} {sweep} best speedup: {speedup:.2f}x at "
              f"chunk_size={best['chunk_size']} "
              f"(must reach {min_speedup:.2f}x at chunk_size >= 16)")
        for p in points:
            allocs = int(p["steady_allocations"])
            if allocs != 0:
                failed = True
                print(f"ALLOCATING {sweep} chunk_size={p['chunk_size']}: "
                      f"{allocs} steady-state allocations (must be 0)")
        print(f"OK {sweep}: zero steady-state allocations at every "
              f"chunk size" if all(int(p["steady_allocations"]) == 0
                                   for p in points) else
              f"{sweep}: allocation gate failed")

    if failed:
        print("kernel gate failed")
        return 1
    return 0


def check_spill(argv):
    candidate_path = argv[0]
    slack = float(argv[1]) if len(argv) >= 2 else 64.0
    with open(candidate_path) as f:
        candidate = json.load(f)
    points = candidate["points"]

    failed = False
    any_spilled = False
    for p in points:
        label = (f"a_rows={p['a_rows']} b_rows={p['b_rows']} "
                 f"skew={p['skew']} budget={p['budget']}")
        if not p["match"]:
            failed = True
            print(f"MISMATCH {label}: budgeted rows differ from the "
                  f"unbudgeted reference")
        else:
            print(f"OK {label}: rows match reference")
        high = float(p["high_water_units"])
        budget = float(p["budget"])
        if high > budget + slack:
            failed = True
            print(f"OVER BUDGET {label}: high_water={high:.0f} exceeds "
                  f"budget + slack ({budget:.0f} + {slack:.0f})")
        else:
            print(f"OK {label}: high_water={high:.0f} within "
                  f"budget + slack ({budget:.0f} + {slack:.0f})")
        any_spilled |= int(p["spill_bytes"]) > 0

    if not any_spilled:
        failed = True
        print("VACUOUS: no point wrote any spill bytes -- the sweep never "
              "pressured the budget")
    else:
        print("OK at least one point spilled")

    if failed:
        print("spill gate failed")
        return 1
    return 0


def check_sharedscan(argv):
    candidate_path = argv[0]
    with open(candidate_path) as f:
        candidate = json.load(f)

    failed = False
    for p in candidate["points"]:
        label = f"concurrency={p['concurrency']}"
        if not p["results_match"]:
            failed = True
            print(f"MISMATCH {label}: shared/solo results differ from the "
                  f"base-relation reference")
        else:
            print(f"OK {label}: every query's rows match the reference")
        batches = int(p["shared_batches"])
        if batches == 0:
            failed = True
            print(f"VACUOUS {label}: no shared batch formed -- the window "
                  f"never folded compatible queries")
        else:
            print(f"OK {label}: {batches} shared batches, "
                  f"{float(p['mean_queries_per_batch']):.1f} queries/batch")

    gate_n = int(candidate["gate_concurrency"])
    solo = float(candidate["gate_solo_qps"])
    shared = float(candidate["gate_shared_qps"])
    if shared > solo:
        print(f"OK gate: shared {shared:.1f} q/s > solo {solo:.1f} q/s "
              f"at {gate_n} concurrent queries")
    else:
        failed = True
        print(f"TOO SLOW gate: shared {shared:.1f} q/s <= solo {solo:.1f} "
              f"q/s at {gate_n} concurrent queries")

    if failed:
        print("sharedscan gate failed")
        return 1
    return 0


def check_adaptive(argv):
    candidate_path = argv[0]
    max_ratio = float(argv[1]) if len(argv) >= 2 else 1.05
    with open(candidate_path) as f:
        candidate = json.load(f)
    static = candidate["modes"]["static"]
    adaptive = candidate["modes"]["adaptive"]

    failed = False
    for name, mode in (("static", static), ("adaptive", adaptive)):
        if not mode["results_match"]:
            failed = True
            print(f"MISMATCH {name}: query results differ from reference")
        else:
            print(f"OK {name}: {int(mode['shorts'])} shorts and the long "
                  f"query all match their references")

    parked = int(adaptive["threads_parked"])
    granted = int(adaptive["threads_granted"])
    if parked == 0 or granted == 0:
        failed = True
        print(f"VACUOUS adaptive: parked={parked} granted={granted} -- the "
              f"rebalancer never reallocated a worker")
    else:
        print(f"OK adaptive: {parked} workers parked, {granted} granted")

    for pct in ("p95", "p99"):
        s = float(static[f"short_{pct}_us"])
        a = float(adaptive[f"short_{pct}_us"])
        if a < s:
            print(f"OK short {pct}: adaptive {a:.0f}us < static {s:.0f}us")
        else:
            failed = True
            print(f"TOO SLOW short {pct}: adaptive {a:.0f}us >= static "
                  f"{s:.0f}us")

    ratio = float(candidate["long_wall_ratio"])
    if ratio <= max_ratio:
        print(f"OK long wall: adaptive/static = {ratio:.3f} "
              f"(<= {max_ratio:.2f})")
    else:
        failed = True
        print(f"REGRESSION long wall: adaptive/static = {ratio:.3f} "
              f"exceeds {max_ratio:.2f}")

    if failed:
        print("adaptive gate failed")
        return 1
    return 0


# The per-pair time the default mode compares: process CPU time, which told
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
    if sys.argv[1] == "--datapath":
        return check_datapath(sys.argv[2:])
    if sys.argv[1] == "--kernels":
        return check_kernels(sys.argv[2:])
    if sys.argv[1] == "--spill":
        return check_spill(sys.argv[2:])
    if sys.argv[1] == "--sharedscan":
        return check_sharedscan(sys.argv[2:])
    if sys.argv[1] == "--adaptive":
        return check_adaptive(sys.argv[2:])
    return check_pairs(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
