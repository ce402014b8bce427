"""Wall-clock deadlines and cancel tokens (:mod:`repro.deadline`)."""

from __future__ import annotations

import time

import pytest

from repro.db.partition import table_partitions
from repro.db.scan import scan_selected
from repro.db.schema import ColumnKind, Schema, measure, numeric_dimension
from repro.db.table import Table
from repro.deadline import UNLIMITED, CancelToken, Deadline, Limits
from repro.errors import DeadlineExceeded, QueryCancelled
from repro.obs.trace import Span
from repro.sqlparser.parser import parse_query


def expired_deadline(budget_s: float = 0.05) -> Deadline:
    """A deadline that is already in the past."""
    return Deadline(expires_at=time.monotonic() - 1.0, budget_s=budget_s)


class TestDeadlineValue:
    def test_generous_deadline_is_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        deadline.check("anywhere")  # must not raise

    def test_past_deadline_is_expired_and_check_raises(self):
        deadline = expired_deadline()
        assert deadline.expired
        with pytest.raises(DeadlineExceeded, match="during the scan"):
            deadline.check("the scan")

    def test_after_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)


class TestLimits:
    def test_unlimited_has_no_deadline(self):
        assert UNLIMITED.deadline is None
        UNLIMITED.check("anywhere")  # must not raise

    def test_unlimited_has_no_token(self):
        assert UNLIMITED.cancel is None
        assert UNLIMITED == Limits(deadline=None, cancel=None)

    def test_under_replaces_only_the_span(self):
        token, deadline, parent = CancelToken(), Deadline.after(60.0), Span("route.exact")
        limits = Limits(deadline, token).under(parent)
        assert (limits.deadline, limits.cancel, limits.span) == (deadline, token, parent)
        assert UNLIMITED.span is None
        assert limits.under(None) == Limits(deadline, token)

    def test_expired_deadline_raises(self):
        with pytest.raises(DeadlineExceeded, match="during batch 3"):
            Limits(deadline=expired_deadline()).check("batch 3")

    def test_cancelled_token_raises(self):
        token = CancelToken()
        token.cancel("requested")
        with pytest.raises(QueryCancelled, match="during batch 3"):
            Limits(cancel=token).check("batch 3")

    def test_cancellation_wins_over_an_expired_deadline(self):
        # A request that is both cancelled and past its deadline must abort
        # as *cancelled*: nobody is listening for a degraded partial.
        token = CancelToken()
        token.cancel("requested")
        with pytest.raises(QueryCancelled):
            Limits(deadline=expired_deadline(), cancel=token).check("batch 1")


class TestCancelToken:
    def test_cancel_latches_first_reason(self):
        token = CancelToken()
        assert not token.cancelled
        assert token.cancel("requested") is True
        assert token.cancel("disconnected") is False  # idempotent latch
        assert token.reason == "requested"

    def test_check_raises_typed_error_with_reason(self):
        token = CancelToken()
        token.check("batch 1")  # not cancelled: no-op
        token.cancel("disconnected")
        with pytest.raises(QueryCancelled) as excinfo:
            token.check("batch 2")
        assert excinfo.value.reason == "disconnected"
        assert "batch 2" in str(excinfo.value)

    def test_probe_is_rate_limited(self):
        calls = []
        clock = [0.0]
        token = CancelToken(
            probe=lambda: calls.append(1), probe_interval_s=0.5, clock=lambda: clock[0]
        )
        for _ in range(10):
            token.check()
        assert len(calls) == 1  # clock never advanced: one probe only
        clock[0] = 0.5
        token.check()
        assert len(calls) == 2

    def test_probe_reporting_a_reason_cancels(self):
        token = CancelToken(probe=lambda: "disconnected", probe_interval_s=0.0)
        with pytest.raises(QueryCancelled) as excinfo:
            token.check("scan")
        assert excinfo.value.reason == "disconnected"
        assert token.cancelled

    def test_broken_probe_is_dropped_permanently(self):
        calls = []

        def probe():
            calls.append(1)
            raise OSError("socket gone weird")

        token = CancelToken(probe=probe, probe_interval_s=0.0)
        token.check()
        token.check()
        assert len(calls) == 1  # never retried
        assert not token.cancelled


class TestScanCheckpoints:
    """The exact scan polls deadline and token once per morsel, before it.

    A morsel is a run of adjacent surviving partitions; the scan is
    all-or-nothing, so an abort must surface as the typed error and never as
    a partial selection.
    """

    def two_run_scan(self):
        """A table and predicate whose scan has two runs (partition 2 pruned)."""
        schema = Schema.of([numeric_dimension("week", ColumnKind.INT), measure("m")])
        table = Table(
            "t",
            schema,
            {"week": [row // 10 for row in range(50)], "m": [1.0] * 50},
        )
        table_partitions(table, partition_rows=10)
        return table, parse_query("SELECT COUNT(*) FROM t WHERE week <> 2").where

    def test_expired_deadline_raises_before_the_first_run(self, recorded_morsels):
        table, predicate = self.two_run_scan()
        with recorded_morsels() as calls:
            with pytest.raises(DeadlineExceeded, match="partitioned scan"):
                scan_selected(table, predicate, limits=Limits(deadline=expired_deadline()))
        assert calls == []

    def test_cancel_during_run_one_raises_before_run_two(self, recorded_morsels):
        table, predicate = self.two_run_scan()
        token = CancelToken()
        with recorded_morsels(on_call=token.cancel) as calls:
            # The token is only polled before a morsel, so raising at all
            # proves a second run was pending.
            with pytest.raises(QueryCancelled):
                scan_selected(table, predicate, limits=Limits(cancel=token))
        assert calls == [20], "run 2 must not be evaluated after the cancel"

    def test_scan_opens_its_span_under_the_limits_span(self):
        table, predicate = self.two_run_scan()
        parent = Span("route.exact")
        scan_selected(table, predicate, limits=UNLIMITED.under(parent))
        (scan,) = parent.children
        assert scan.name == "scan" and scan.status == "ok"
        assert scan.attrs["partitions_pruned"] == 1
        assert scan.attrs["rows_scanned"] == 40
