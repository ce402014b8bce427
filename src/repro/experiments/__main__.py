"""CLI: replay a Customer1 trace through a live ``VerdictService``.

``python -m repro.experiments --serve`` builds the Customer1-like workload,
ingests the first half of its trace (record + train), then replays the
second half through the concurrent service and prints the per-route
serving metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.experiments.runner import replay_trace_through_service
from repro.serve import ServiceBudget, SynopsisStore, VerdictService
from repro.workloads.customer1 import Customer1Workload


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--serve", action="store_true", help="run the serving replay")
    parser.add_argument("--rows", type=int, default=20_000, help="fact table rows")
    parser.add_argument("--queries", type=int, default=60, help="trace length")
    parser.add_argument("--workers", type=int, default=4, help="service worker threads")
    parser.add_argument(
        "--error-budget", type=float, default=0.05, help="max relative error bound"
    )
    parser.add_argument(
        "--store-dir", default=None, help="persist learned state to this directory"
    )
    args = parser.parse_args(argv)
    if not args.serve:
        parser.error("this entry point only implements --serve")

    workload = Customer1Workload(num_rows=args.rows, seed=21)
    catalog = workload.build_catalog()
    sampling = SamplingConfig(sample_ratio=0.2, num_batches=5, seed=1)
    store = SynopsisStore(args.store_dir) if args.store_dir else None
    service = VerdictService(
        catalog,
        store=store,
        sampling=sampling,
        cost_model=CostModelConfig.scaled_for(int(args.rows * sampling.sample_ratio)),
        config=VerdictConfig(learn_length_scales=False),
        max_workers=args.workers,
    )
    trace = workload.generate_trace(num_queries=args.queries, seed=22)
    split = len(trace) // 2
    with service:
        for query in trace[:split]:
            service.record_answer(query.sql)
        service.train()
        report = replay_trace_through_service(
            service,
            [query.sql for query in trace[split:]],
            budget=ServiceBudget.interactive(args.error_budget),
        )
    print(
        json.dumps(
            {
                "queries": report.queries,
                "failures": report.failures,
                "wall_seconds": report.wall_seconds,
                "queries_per_second": report.queries_per_second,
                "metrics": report.metrics,
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke runs
    sys.exit(main())
