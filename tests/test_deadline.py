"""Wall-clock deadlines (:mod:`repro.deadline`): value type and ambient scope."""

from __future__ import annotations

import threading
import time

import pytest

from repro.db.partition import table_partitions
from repro.db.scan import scan_selected
from repro.db.schema import ColumnKind, Schema, measure, numeric_dimension
from repro.db.table import Table
from repro.deadline import (
    CancelToken,
    Deadline,
    cancel_scope,
    check_deadline,
    current_cancel,
    current_deadline,
    deadline_scope,
)
from repro.errors import DeadlineExceeded, QueryCancelled
from repro.sqlparser.parser import parse_query


def expired_deadline(budget_s: float = 0.05) -> Deadline:
    """A deadline that is already in the past."""
    return Deadline(expires_at=time.monotonic() - 1.0, budget_s=budget_s)


class TestDeadlineValue:
    def test_generous_deadline_is_not_expired(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert deadline.remaining_s > 0
        deadline.check("anywhere")  # must not raise

    def test_past_deadline_is_expired_and_check_raises(self):
        deadline = expired_deadline()
        assert deadline.expired
        assert deadline.remaining_s < 0
        with pytest.raises(DeadlineExceeded, match="during the scan"):
            deadline.check("the scan")

    def test_after_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            Deadline.after(0.0)


class TestAmbientScope:
    def test_no_scope_means_no_deadline(self):
        assert current_deadline() is None
        check_deadline("outside any scope")  # no-op, must not raise

    def test_scope_installs_and_restores(self):
        deadline = Deadline.after(60.0)
        with deadline_scope(deadline):
            assert current_deadline() is deadline
        assert current_deadline() is None

    def test_scopes_nest(self):
        outer = Deadline.after(60.0)
        inner = Deadline.after(30.0)
        with deadline_scope(outer):
            with deadline_scope(inner):
                assert current_deadline() is inner
            assert current_deadline() is outer

    def test_none_scope_masks_the_outer_deadline(self):
        with deadline_scope(expired_deadline()):
            with deadline_scope(None):
                check_deadline("shielded")  # expired outer must not leak in

    def test_check_deadline_raises_inside_expired_scope(self):
        with deadline_scope(expired_deadline()):
            with pytest.raises(DeadlineExceeded):
                check_deadline("batch 3")

    def test_scope_is_thread_local(self):
        seen: list[Deadline | None] = []

        def probe():
            seen.append(current_deadline())

        with deadline_scope(Deadline.after(60.0)):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [None], "ambient deadlines must not leak across threads"


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


class TestAmbientCancelScope:
    def test_no_scope_means_no_token(self):
        assert current_cancel() is None
        check_deadline("anywhere")  # no ambient state: no-op

    def test_check_deadline_raises_inside_cancelled_scope(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(QueryCancelled):
                check_deadline("batch 3")
        assert current_cancel() is None  # restored on exit

    def test_cancellation_wins_over_an_expired_deadline(self):
        # A request that is both cancelled and past its deadline must abort
        # as *cancelled*: nobody is listening for a degraded partial.
        token = CancelToken()
        token.cancel("requested")
        with deadline_scope(expired_deadline()):
            with cancel_scope(token):
                with pytest.raises(QueryCancelled):
                    check_deadline("batch 1")

    def test_scope_is_thread_local(self):
        seen = []
        with cancel_scope(CancelToken()):
            worker = threading.Thread(target=lambda: seen.append(current_cancel()))
            worker.start()
            worker.join()
        assert seen == [None], "ambient tokens must not leak across threads"

    def test_none_scope_masks_the_outer_token(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with cancel_scope(None):
                check_deadline("shielded")


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
        with recorded_morsels() as calls, deadline_scope(expired_deadline()):
            with pytest.raises(DeadlineExceeded, match="partitioned scan"):
                scan_selected(table, predicate)
        assert calls == []

    def test_cancel_during_run_one_raises_before_run_two(self, recorded_morsels):
        table, predicate = self.two_run_scan()
        token = CancelToken()
        with recorded_morsels(on_call=token.cancel) as calls, cancel_scope(token):
            # The token is only polled before a morsel, so raising at all
            # proves a second run was pending.
            with pytest.raises(QueryCancelled):
                scan_selected(table, predicate)
        assert calls == [20], "run 2 must not be evaluated after the cancel"
