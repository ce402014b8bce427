"""Concurrent serving throughput: the planner's routes vs exact-only replay.

Replays a Customer1-like query trace through a live
:class:`repro.serve.service.VerdictService` from multiple threads and
measures queries/second plus p50/p99 wall latency per route.  The same trace
is then replayed through the exact executor alone (same thread count) as the
"no serving layer" baseline -- every query paying a full denormalised scan.

The serving layer wins two ways: repeated queries are answered from the
versioned answer cache in microseconds, and novel-but-supported queries are
answered from the first sample batch tightened by learned inference instead
of a full scan.  The acceptance bar (ISSUE 3) is a >= 5x throughput win on
the 100k-row workload.

Run as a script to (re)generate the committed JSON artifacts::

    PYTHONPATH=src python benchmarks/bench_serving.py

which writes ``benchmarks/results/serving.json`` and the repo-root
perf-trajectory datapoint ``BENCH_serving.json``.  CI runs::

    python benchmarks/bench_serving.py --smoke

on a tiny workload and fails if the service is not faster than exact-only
replay.  It can also run under pytest:  pytest benchmarks/bench_serving.py -q
"""

from __future__ import annotations

import argparse
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.db.executor import ExactExecutor
from repro.experiments.runner import replay_trace_through_service
from repro.serve import ServiceBudget, VerdictService
from repro.sqlparser.parser import parse_query
from repro.workloads.customer1 import Customer1Workload

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parent.parent


def build_replay(
    num_rows: int, num_queries: int, repeats: int, seed: int = 21
) -> tuple[Customer1Workload, list[str], list[str]]:
    """The workload, its training queries, and the (repeated) replay trace.

    The replay trace repeats each held-out test query ``repeats`` times (in
    trace order per round), modelling the recurring-template traffic the
    paper's Customer1 trace exhibits -- and exercising the answer cache the
    way a dashboard would.
    """
    workload = Customer1Workload(num_rows=num_rows, seed=seed)
    trace = workload.generate_trace(num_queries=num_queries, seed=seed + 1)
    split = len(trace) // 2
    training = [q.sql for q in trace[:split]]
    test = [q.sql for q in trace[split:]]
    replay = [sql for _ in range(repeats) for sql in test]
    return workload, training, replay


def run_benchmark(
    num_rows: int,
    num_queries: int,
    repeats: int,
    workers: int,
    error_budget: float,
) -> dict:
    workload, training, replay = build_replay(num_rows, num_queries, repeats)
    sampling = SamplingConfig(sample_ratio=0.2, num_batches=5, seed=1)
    cost_model = CostModelConfig.scaled_for(int(num_rows * sampling.sample_ratio))
    budget = ServiceBudget.interactive(error_budget)

    # ---- serving replay: cached + learned + online-agg + exact fallback ----
    catalog = workload.build_catalog()
    service = VerdictService(
        catalog,
        sampling=sampling,
        cost_model=cost_model,
        config=VerdictConfig(learn_length_scales=False),
    )
    with service:
        for sql in training:
            service.record_answer(sql)
        service.train()
        report = replay_trace_through_service(
            service, replay, budget=budget, workers=workers
        )

    # ---- exact-only replay: every query pays a full denormalised scan -----
    exact_catalog = workload.build_catalog()
    executor = ExactExecutor(exact_catalog)
    parsed = [parse_query(sql) for sql in replay]
    executor.execute(parsed[0])  # warm the column-encoding memo / join cache
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(executor.execute, parsed):
            pass
    exact_wall = time.perf_counter() - started
    exact_qps = len(parsed) / exact_wall if exact_wall > 0 else 0.0

    route_latencies = {
        route: {
            "requests": stats["requests"],
            "p50_ms": stats["wall_latency"]["p50_s"] * 1e3,
            "p99_ms": stats["wall_latency"]["p99_s"] * 1e3,
            "mean_ms": stats["wall_latency"]["mean_s"] * 1e3,
        }
        for route, stats in report.metrics["routes"].items()
    }
    return {
        "benchmark": "serving",
        "description": (
            "Multi-threaded Customer1 trace replay through VerdictService "
            "(cached/learned/online-agg/exact routes, answer cache, RW locks) "
            "vs replaying the same trace through the exact executor alone."
        ),
        "workload": {
            "num_rows": num_rows,
            "trace_queries": num_queries,
            "replayed_queries": len(replay),
            "repeats_per_query": repeats,
            "workers": workers,
            "error_budget": error_budget,
        },
        "serving": {
            "queries_per_second": report.queries_per_second,
            "wall_seconds": report.wall_seconds,
            "failures": report.failures,
            "routes": route_latencies,
        },
        "exact_only": {
            "queries_per_second": exact_qps,
            "wall_seconds": exact_wall,
        },
        "speedup": report.queries_per_second / max(exact_qps, 1e-12),
    }


#: Smoke configuration: the 100k-row scale the serving layer targets (the
#: exact executor is sub-millisecond on toy tables, so smaller scales cannot
#: show the routing win), but a short trace so the whole run stays seconds.
SMOKE = dict(num_rows=100_000, num_queries=16, repeats=10, workers=2, error_budget=0.1)


def test_serving_smoke():
    """Pytest entry: serving must beat exact-only replay on the smoke trace."""
    payload = run_benchmark(**SMOKE)
    assert payload["serving"]["failures"] == 0
    assert payload["speedup"] > 1.2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload; exit non-zero if serving is not faster than exact-only",
    )
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--error-budget", type=float, default=0.08)
    args = parser.parse_args()

    if args.smoke:
        payload = run_benchmark(**SMOKE)
        print(json.dumps(payload, indent=2))
        if payload["serving"]["failures"]:
            print(f"FAIL: {payload['serving']['failures']} replay queries failed")
            return 1
        if payload["speedup"] <= 1.2:
            print(f"FAIL: serving speedup {payload['speedup']:.2f}x <= 1.2x")
            return 1
        print(f"smoke OK: serving {payload['speedup']:.1f}x faster than exact-only")
        return 0

    payload = run_benchmark(
        num_rows=args.rows,
        num_queries=args.queries,
        repeats=args.repeats,
        workers=args.workers,
        error_budget=args.error_budget,
    )
    text = json.dumps(payload, indent=2) + "\n"
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "serving.json").write_text(text)
    (REPO_ROOT / "BENCH_serving.json").write_text(text)
    print(text)
    print(f"wrote {RESULTS_DIR / 'serving.json'} and {REPO_ROOT / 'BENCH_serving.json'}")
    if payload["speedup"] < 5.0:
        print(f"WARNING: speedup {payload['speedup']:.2f}x below the 5x acceptance bar")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
