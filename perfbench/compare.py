"""Compare the benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT_LOG CHANGE_LOG

Each log holds the stdout of untraced ``run.py`` runs (any other lines are
skipped).  Run both sides with the same seeds in the same order,
alternating which side goes first; the i-th run of one side is paired
with the i-th run of the other.  For every workload and end-to-end metric
in BENCHMARK.json this prints each side's median and quartiles, the
pairs each side won, and a verdict:

- improved: the change won at least 9/10 of the pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- unresolved: either side's interquartile range, as a share of its
  median, is wider than the metric's bound, and not every change run is
  better than every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound (a share of the parent's median);
- no worse: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> dict:
    """Compare two samples of one metric; see the module docstring."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    change_wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    gain = sign * (pmed - cmed)           # > 0 when the change is better
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if pairs and change_wins >= 0.9 * len(pairs) and gain > pq3 - pq1:
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif -gain > bound * abs(pmed):
        label = "worse"
    else:
        label = "no worse"
    return {"parent": (pq1, pmed, pq3), "change": (cq1, cmed, cq3),
            "pairs": len(pairs), "parent_wins": parent_wins,
            "change_wins": change_wins, "verdict": label}


def read_runs(path) -> dict[str, list[dict]]:
    """Untraced run records per workload, in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith('{"workload"'):
                continue
            record = json.loads(line)
            if record.get("trace") == 0:
                runs[record["workload"]].append(record)
    return runs


def compare(parent_runs, change_runs, spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        for metric in spec["end_to_end"]:
            name = metric["name"]

            def values(runs):
                return [r["result"]["metrics"][name]["value"] for r in runs]

            row = verdict(values(parent_runs[workload]),
                          values(change_runs[workload]),
                          metric["better"] == "lower", metric["bound"])
            rows.append({"workload": workload, "metric": name,
                         "unit": metric["unit"], **row})
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(read_runs(argv[0]), read_runs(argv[1]), spec)
    if not rows:
        sys.stderr.write("no workload has runs on both sides\n")
        return 2
    print(f"{'workload':<14} {'metric':<13} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28}  wins p/c   verdict")
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:<14} {r['metric']:<13} {p:>25} {r['unit']:<2} "
              f"{c:>25} {r['unit']:<2}  {r['parent_wins']:>2}/"
              f"{r['change_wins']:<2} of {r['pairs']:<2} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
