"""Compare two result sets of the pipeline benchmark.

``python perf/compare.py A.json B.json`` — each file is what
``perf/run.py [--repeat N] --out FILE`` wrote. One row per workload x
end-to-end metric: both medians, the ratio B/A with its base, each
set's own spread (interquartile range over median), and the verdict
under the metric's bound from ``BENCHMARK.json``:

``better`` / ``worse``  B's median differs from A's by more than the bound
``same``                it does not
``unresolved``          a set's own spread exceeds the bound, so the
                        medians cannot tell — unless every run of one
                        side beats every run of the other

Exit status is 1 on any ``worse`` (or any failed operation in B).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

__all__ = ["spread", "verdict", "compare", "main"]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> str:
    """Where B stands against A for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (statistics.median(b) - statistics.median(a)) \
        / statistics.median(a)
    if max(spread(a), spread(b)) > bound:
        if min(sign * v for v in b) > max(sign * v for v in a):
            return "better"
        if max(sign * v for v in b) < min(sign * v for v in a):
            return "worse"
        return "unresolved"
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "same"


def _values(result: Dict[str, object], workload: str,
            metric: str) -> List[float]:
    return [run[workload]["end_to_end"][metric]
            for run in result["runs"] if workload in run]


def compare(a: Dict[str, object], b: Dict[str, object],
            spec: Dict[str, object]) -> List[Dict[str, object]]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "median_a": statistics.median(va),
                "median_b": statistics.median(vb),
                "spread_a": spread(va), "spread_b": spread(vb),
                "runs_a": len(va), "runs_b": len(vb),
                "verdict": verdict(va, vb, metric["better"],
                                   metric["bound"]),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    rows = compare(a, b, spec)
    print(f"A = {argv[0]} ({len(a['runs'])} runs)   "
          f"B = {argv[1]} ({len(b['runs'])} runs)")
    print(f"{'workload':13s} {'metric':15s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A':>7s} {'unit (base: A)':15s} "
          f"{'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:13s} {row['metric']:15s} "
              f"{row['median_a']:12.4f} {row['median_b']:12.4f} "
              f"{row['median_b'] / row['median_a']:7.4f} "
              f"{row['unit']:15s} {row['spread_a']:8.4f} "
              f"{row['spread_b']:8.4f} {row['bound']:6.2f}  "
              f"{row['verdict']}")
    failed = sum(record["failed"] for run in b["runs"]
                 for record in run.values())
    if failed:
        print(f"B has {failed} failed operations")
    counts = {v: sum(row["verdict"] == v for row in rows)
              for v in ("better", "same", "worse", "unresolved")}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if counts["worse"] or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
