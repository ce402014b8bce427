"""Figure 5: validity of Verdict's error bounds.

Buckets Verdict's reported 95% error bounds by size and reports the 5th /
50th / 95th percentile of the actual errors in each bucket, plus the overall
bound-violation rate.  In the paper the 95th percentile stays below the bound
everywhere; here coverage is lower because every ask reads the same offline
sample, so raw errors of overlapping snippets are correlated while the model
treats them as independent -- see "Deviations from the paper" in
docs/ARCHITECTURE.md.
"""

from __future__ import annotations


from benchmarks.common import customer1_runner, emit
from repro.experiments.metrics import bound_violation_rate, percentile
from repro.experiments.reporting import format_table

_BUCKETS = [0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 1.0]


def _collect_pairs():
    runner, test_queries = customer1_runner(num_queries=80, learn=True)
    results = runner.evaluate(test_queries)
    return [pair for result in results for pair in result.verdict_cells]


def test_fig5_confidence_intervals(benchmark):
    pairs = benchmark.pedantic(_collect_pairs, rounds=1, iterations=1)
    rows = []
    low = 0.0
    for high in _BUCKETS:
        in_bucket = [actual for bound, actual in pairs if low < bound <= high]
        if in_bucket:
            rows.append(
                [
                    f"({100 * low:.0f}%, {100 * high:.0f}%]",
                    len(in_bucket),
                    f"{100 * percentile(in_bucket, 0.05):.2f}%",
                    f"{100 * percentile(in_bucket, 0.50):.2f}%",
                    f"{100 * percentile(in_bucket, 0.95):.2f}%",
                ]
            )
        low = high
    violation = bound_violation_rate(pairs)
    emit(
        "fig5_confidence",
        format_table(
            ["Bound bucket", "# cells", "5th pct actual", "median actual", "95th pct actual"],
            rows,
            title="Figure 5: actual error distribution per error-bound bucket "
            f"(overall violation rate {100 * violation:.1f}%)",
        ),
    )
    assert pairs
    assert violation < 0.5
