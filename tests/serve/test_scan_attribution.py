"""Per-service scan attribution.

Two services in one process must not see each other's partition scans in
their own metrics: each ``VerdictService`` threads a shared
:class:`~repro.db.scan.ScanCounters` through its executors, and
``ServiceMetrics.scan_snapshot`` reads exactly that.  There is no
process-wide scan view: every scan is booked to its owner only.
"""

from __future__ import annotations

from repro.config import SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.serve import ServiceBudget, VerdictService
from repro.workloads.synthetic import make_sales_table

SAMPLING = SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2)
CONFIG = VerdictConfig(learn_length_scales=False)

SQL = "SELECT COUNT(*) FROM sales"


def build_service(num_rows: int = 2_000) -> VerdictService:
    table = make_sales_table(num_rows=num_rows, num_weeks=52, seed=9)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    return VerdictService(catalog, sampling=SAMPLING, config=CONFIG)


class TestScanAttribution:
    def test_two_services_do_not_cross_attribute(self):
        with build_service() as one, build_service() as two:
            one.query(SQL, budget=ServiceBudget.exact())
            # Distinct SQL texts: identical repeats would hit the answer
            # cache and never reach the scanner.
            for week in (1, 2, 3):
                two.query(
                    f"SELECT COUNT(*) FROM sales WHERE week >= {week}",
                    budget=ServiceBudget.exact(),
                )

            first = one.metrics.scan_snapshot()
            second = two.metrics.scan_snapshot()
            assert first["scans"] == 1
            assert second["scans"] == 3
            # The exact route scans real rows, so attribution is non-trivial.
            assert first["rows_scanned"] > 0
            assert second["rows_scanned"] > first["rows_scanned"]

    def test_as_dict_has_the_scan_view(self):
        with build_service() as service:
            service.query(SQL, budget=ServiceBudget.exact())
            state = service.metrics.as_dict()
            assert state["scan"]["scans"] == 1
            assert "scan_process" not in state
            assert set(state["scan"]) >= {
                "scans",
                "partitions_total",
                "partitions_scanned",
                "partitions_pruned",
                "rows_total",
                "rows_scanned",
            }
