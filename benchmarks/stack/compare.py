"""Compare two sets of runs: ``python3 benchmarks/stack/compare.py A.json B.json``.

``A`` is the parent (baseline), ``B`` the change; each is what
``run.py --repeat N --out FILE`` wrote.  For every workload x end-to-end
metric the table shows both sides' median and quartiles, the regression bound
from ``BENCHMARK.json`` and a verdict:

``same``
    B's median is no worse than A's by more than the bound.
``worse``
    B's median is worse than A's by more than the bound.
``unresolved``
    Either side's spread (interquartile range over its median) is wider than
    the bound, so a difference of that size cannot be told from noise --
    unless every run of B reads better than every run of A.

Exit status is 1 when any row is ``worse``, so the script can gate a change.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    """``{(workload, metric): values}`` over the untraced runs of one file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, value in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(value)
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def spread(values: list[float]) -> float:
    low, median, high = summary(values)
    return (high - low) / abs(median) if median else float("inf")


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = summary(a)[1], summary(b)[1]
    worsening = sign * (median_b - median_a) / abs(median_a)
    if max(spread(a), spread(b)) > bound:
        all_better = max(sign * v for v in b) < min(sign * v for v in a)
        return "same" if all_better else "unresolved"
    return "worse" if worsening > bound else "same"


def compare(path_a: str, path_b: str) -> list[dict]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for metric in benchmark["end_to_end"]:
            key = (workload, metric["name"])
            if key not in runs_a or key not in runs_b:
                continue
            a, b = runs_a[key], runs_b[key]
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": summary(a),
                    "b": summary(b),
                    "runs": (len(a), len(b)),
                    "bound": metric["bound"],
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(f"{'workload':<12} {'metric':<15} {'unit':<6} "
          f"{'A q1 / median / q3':>36} {'B q1 / median / q3':>36} {'bound':>6}  verdict")
    for row in rows:
        a = " / ".join(f"{value:.5g}" for value in row["a"])
        b = " / ".join(f"{value:.5g}" for value in row["b"])
        print(f"{row['workload']:<12} {row['metric']:<15} {row['unit']:<6} "
              f"{a:>36} {b:>36} {row['bound']:>6.0%}  {row['verdict']}")
    print(f"runs per side: {rows[0]['runs'][0]} / {rows[0]['runs'][1]}" if rows else "no rows")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
