"""Serving demo: a Verdict service that survives restarts without forgetting.

The paper's headline claim is a database that "becomes smarter every time".
This demo makes that observable end to end:

1. start a :class:`VerdictService` on the Customer1-like workload with a
   persistent :class:`SynopsisStore`, ingest a query trace, and train;
2. answer a fresh query and note how much inference tightened the raw
   error bound;
3. *kill* the service (graceful shutdown flushes the learned state);
4. start a brand-new service over the same data and the same store -- it
   reloads the synopsis and factorisations and answers the same query with
   byte-identical improvement, while a cold service (no store) is stuck with
   the raw answer.

Run with:  python examples/serve_demo.py
"""

from __future__ import annotations

import tempfile

from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.serve import ServiceBudget, SynopsisStore, VerdictService
from repro.workloads.customer1 import Customer1Workload

NUM_ROWS = 30_000
PROBE = (
    "SELECT AVG(revenue) FROM sales "
    "WHERE date_key >= 120 AND date_key <= 200 AND customer_age >= 30"
)


def make_service(store: SynopsisStore | None) -> VerdictService:
    workload = Customer1Workload(num_rows=NUM_ROWS, seed=11)
    sampling = SamplingConfig(sample_ratio=0.2, num_batches=5, seed=1)
    return VerdictService(
        workload.build_catalog(),
        store=store,
        sampling=sampling,
        cost_model=CostModelConfig.scaled_for(int(NUM_ROWS * sampling.sample_ratio)),
        config=VerdictConfig(learn_length_scales=False),
    )


def describe(tag: str, service: VerdictService) -> tuple[float, float]:
    """Answer the probe (uncached, unrecorded) and print its error bound."""
    answer = service.query(PROBE, budget=ServiceBudget.interactive(0.5), record=False)
    bound = answer.relative_error_bound
    print(
        f"  {tag:<28} route={answer.route.value:<10} "
        f"value={answer.scalar():9.2f}  95% bound={100 * bound:5.2f}%  "
        f"(synopsis: {len(service.engine.synopsis)} snippets)"
    )
    return answer.scalar(), bound


def main() -> None:
    workload = Customer1Workload(num_rows=NUM_ROWS, seed=11)
    trace = [q.sql for q in workload.generate_trace(num_queries=40, seed=12) if q.expected_supported]

    with tempfile.TemporaryDirectory() as directory:
        store = SynopsisStore(directory)

        print("1. Fresh service ingests the trace and trains ...")
        service = make_service(store)
        for sql in trace:
            service.record_answer(sql)
        service.train()
        value_before, bound_before = describe("trained service", service)

        print("\n2. Killing the service (graceful shutdown snapshots the store) ...")
        service.close()
        print(f"   store: {store.snapshots_written} snapshot(s), "
              f"{store.deltas_written} delta record(s)")

        print("\n3. Restarting from the synopsis store ...")
        reborn = make_service(SynopsisStore(directory))
        assert reborn.restored, "expected the service to restore persisted state"
        value_after, bound_after = describe("restarted service", reborn)
        reborn.close()

        print("\n4. For comparison, a cold service with no store ...")
        cold = make_service(None)
        _, bound_cold = describe("cold service (no store)", cold)
        cold.close()

        print()
        if (value_after, bound_after) == (value_before, bound_before):
            print("Restarted answers are byte-identical to the pre-restart service.")
        if bound_after < bound_cold:
            print(
                f"The reloaded synopsis still tightens the bound "
                f"({100 * bound_after:.2f}% vs {100 * bound_cold:.2f}% cold): "
                "the service is exactly as smart as when it stopped."
            )


if __name__ == "__main__":
    main()
