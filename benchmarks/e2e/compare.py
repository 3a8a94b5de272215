"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py BASE_DIR HEAD_DIR

Each directory holds the run records ``run.py --out DIR`` writes.  For
every (workload, end-to-end metric) pair present on both sides, one row
reports the medians, the change, each side's spread (quartile distance
over median) and one verdict:

``unresolved``  a side's spread is wider than the metric's bound, and
                not every head run reads better than every base run;
``regressed``   the head median is worse than the base median by more
                than the bound;
``improved``    the head wins at least 9 of every 10 pairs (runs matched
                by seed, then in run order; ties count for neither) and
                the medians differ by more than the base's quartile
                distance;
``slower``      the same rule the other way round: a slowdown within
                the bound that the pairs still resolve.  It does not
                fail the comparison;
``unchanged``   otherwise.

Digests must also agree for every (workload, seed) run on both sides,
since a speed change must leave every simulated statistic identical.
Exits 1 when any row regressed or any digest differs.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import statistics
import sys

import spec


def load_runs(directory) -> dict:
    """``{workload: [record, ...]}`` of untraced runs, in (seed, time)
    order."""
    runs = collections.defaultdict(list)
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") == 0:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda r: (r["seed"], r["time"]))
    return runs


def spread(values) -> float:
    """Quartile distance over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(base, head, bound: float, lower_is_better: bool) -> tuple:
    """``(verdict, pair wins, pairs)`` for one metric on one workload."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    med_base, med_head = statistics.median(base), statistics.median(head)
    pairs = list(zip(base, head))
    wins = sum(better(h, b) for b, h in pairs)
    losses = sum(better(b, h) for b, h in pairs)
    every_better = all(better(h, b) for h in head for b in base)
    if max(spread(base), spread(head)) > bound and not every_better:
        return "unresolved", wins, len(pairs)
    worse = (med_head - med_base) if lower_is_better else (med_base - med_head)
    if worse > bound * med_base:
        return "regressed", wins, len(pairs)
    resolved = abs(med_head - med_base) > spread(base) * med_base
    if resolved and worse < 0 and wins >= 0.9 * len(pairs):
        return "improved", wins, len(pairs)
    if resolved and worse > 0 and losses >= 0.9 * len(pairs):
        return "slower", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def digest_mismatches(base: dict, head: dict) -> list:
    seen = collections.defaultdict(set)
    for side in (base, head):
        for workload, records in side.items():
            for record in records:
                seen[(workload, record["seed"])].add(record["digest"])
    return sorted(key for key, digests in seen.items() if len(digests) > 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="directory of parent-commit runs")
    parser.add_argument("head", help="directory of changed-commit runs")
    args = parser.parse_args(argv)
    bench = spec.load_benchmark()
    base, head = load_runs(args.base), load_runs(args.head)

    failing = False
    print(f"{'workload':<16} {'metric':<12} {'base':>10} {'head':>10} "
          f"{'change':>8} {'spread':>13} {'bound':>6} {'wins':>6}  verdict")
    for workload in spec.WORKLOADS:
        if workload not in base or workload not in head:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in head[workload]]
            result, wins, pairs = verdict(a, b, metric["bound"],
                                          metric["better"] == "lower")
            failing |= result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(f"{workload:<16} {name:<12} {med_a:>10.4g} {med_b:>10.4g} "
                  f"{(med_b - med_a) / med_a:>+8.1%} "
                  f"{spread(a):>6.1%}/{spread(b):<6.1%} "
                  f"{metric['bound']:>6.0%} {wins:>3}/{pairs:<2}  {result}")
    for workload, seed in digest_mismatches(base, head):
        failing = True
        print(f"digest mismatch: {workload} seed {seed}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
