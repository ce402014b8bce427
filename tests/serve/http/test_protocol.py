"""Unit tests for the wire protocol: strict validation, mapping, fingerprints."""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    CatalogError,
    ServiceError,
    SQLSyntaxError,
    TableError,
    UnsupportedQueryError,
)
from repro.serve.http import protocol
from repro.serve.http.admission import ShedLoad, ShuttingDown
from repro.serve.http.protocol import ApiError
from repro.serve.planner import Route
from repro.serve.service import ServedAnswer, ServedRow


def error_of(callable_, payload) -> ApiError:
    with pytest.raises(ApiError) as excinfo:
        callable_(payload)
    return excinfo.value


class TestAskValidation:
    def test_valid_minimal(self):
        request = protocol.parse_ask({"tenant": "acme", "sql": "SELECT COUNT(*) FROM t"})
        assert request.tenant == "acme"
        assert request.budget is None
        assert request.record is None

    def test_budget_fields_build_a_budget(self):
        request = protocol.parse_ask(
            {"tenant": "acme", "sql": "SELECT 1", "max_relative_error": 0.05}
        )
        assert request.budget.max_relative_error == 0.05
        assert request.budget.max_latency_s is None

    def test_non_object_body(self):
        assert error_of(protocol.parse_ask, [1, 2]).code == "bad_request"
        assert error_of(protocol.parse_ask, "x").status == 400

    def test_unknown_field_rejected(self):
        error = error_of(
            protocol.parse_ask, {"tenant": "a", "sql": "SELECT 1", "sq1": "typo"}
        )
        assert error.code == "bad_request"
        assert "sq1" in error.message

    def test_missing_required_field(self):
        assert "sql" in error_of(protocol.parse_ask, {"tenant": "a"}).message

    def test_wrong_type_rejected(self):
        error = error_of(protocol.parse_ask, {"tenant": "a", "sql": 7})
        assert error.status == 400 and "sql" in error.message

    def test_bool_is_not_a_number(self):
        # JSON true is a Python bool, which is an int subclass; the budget
        # fields must still reject it.
        error = error_of(
            protocol.parse_ask,
            {"tenant": "a", "sql": "SELECT 1", "max_relative_error": True},
        )
        assert error.status == 400

    def test_empty_sql_rejected(self):
        assert error_of(protocol.parse_ask, {"tenant": "a", "sql": "   "}).status == 400

    def test_negative_error_budget_rejected(self):
        error = error_of(
            protocol.parse_ask,
            {"tenant": "a", "sql": "SELECT 1", "max_relative_error": -0.5},
        )
        assert error.status == 400

    @pytest.mark.parametrize(
        "name", ["", ".hidden", "a/b", "a b", "-lead", "x" * 65, "tenant\n"]
    )
    def test_bad_tenant_names(self, name):
        error = error_of(protocol.parse_ask, {"tenant": name, "sql": "SELECT 1"})
        assert error.status == 400

    @pytest.mark.parametrize("name", ["a", "acme", "Tenant_1.prod-eu", "0x9"])
    def test_good_tenant_names(self, name):
        assert protocol.parse_ask({"tenant": name, "sql": "SELECT 1"}).tenant == name


class TestAppendValidation:
    def test_valid(self):
        request = protocol.parse_append(
            {"tenant": "a", "table": "sales", "rows": {"week": [1, 2]}}
        )
        assert request.adjust is True
        assert request.rows == {"week": [1, 2]}

    def test_adjust_false(self):
        request = protocol.parse_append(
            {"tenant": "a", "table": "sales", "rows": {"week": [1]}, "adjust": False}
        )
        assert request.adjust is False

    def test_empty_rows_rejected(self):
        error = error_of(
            protocol.parse_append, {"tenant": "a", "table": "t", "rows": {}}
        )
        assert error.code == "bad_rows"

    def test_non_list_values_rejected(self):
        error = error_of(
            protocol.parse_append, {"tenant": "a", "table": "t", "rows": {"week": 3}}
        )
        assert error.code == "bad_rows"


class TestOtherRequests:
    def test_record(self):
        assert protocol.parse_record({"tenant": "a", "sql": "SELECT 1"}).sql == "SELECT 1"

    def test_train_defaults(self):
        request = protocol.parse_train({"tenant": "a"})
        assert request.wait is True and request.learn is None

    def test_train_background(self):
        assert protocol.parse_train({"tenant": "a", "wait": False}).wait is False

    def test_tenant_only(self):
        assert protocol.parse_tenant_only({"tenant": "a"}).tenant == "a"
        assert error_of(protocol.parse_tenant_only, {}).status == 400


class TestExceptionMapping:
    @pytest.mark.parametrize(
        "error, status, code",
        [
            (ShedLoad("full"), 429, "shed_load"),
            (ShuttingDown("bye"), 503, "shutting_down"),
            (SQLSyntaxError("parse"), 400, "invalid_sql"),
            (UnsupportedQueryError("nope"), 400, "unsupported_query"),
            (CatalogError("unknown table 'x'"), 404, "unknown_table"),
            (TableError("missing column"), 400, "bad_rows"),
            (ServiceError("service is closed"), 503, "shutting_down"),
            (RuntimeError("boom"), 500, "internal"),
        ],
    )
    def test_mapping(self, error, status, code):
        mapped = protocol.map_exception(error)
        assert (mapped.status, mapped.code) == (status, code)

    def test_api_error_passthrough(self):
        original = protocol.unknown_tenant("ghost")
        assert protocol.map_exception(original) is original

    def test_body_shape(self):
        body = protocol.unknown_tenant("ghost").body()
        assert body["error"]["code"] == "unknown_tenant"
        assert "ghost" in body["error"]["message"]


class TestFingerprint:
    STATE = {
        "sql": "SELECT COUNT(*) FROM sales",
        "route": "exact",
        "rows": [{"group": [], "values": {"count": 10.0}, "errors": {"count": 0.0}}],
        "relative_error_bound": 0.0,
        "model_seconds": 0.25,
        "wall_seconds": 0.0123,
        "supported": True,
        "budget_met": True,
        "from_cache": False,
        "recorded": False,
        "batches_processed": 0,
    }

    def test_nondeterministic_fields_excluded(self):
        warm = dict(
            self.STATE,
            wall_seconds=9.9,
            model_seconds=0.0,
            from_cache=True,
            route="cached",
            recorded=True,
        )
        assert protocol.answer_fingerprint(self.STATE) == protocol.answer_fingerprint(warm)

    def test_deterministic_fields_included(self):
        changed = dict(self.STATE, relative_error_bound=0.01)
        assert protocol.answer_fingerprint(self.STATE) != protocol.answer_fingerprint(
            changed
        )

    def test_canonical_bytes(self):
        fingerprint = protocol.answer_fingerprint(self.STATE)
        # Canonical form: sorted keys, compact separators, valid JSON.
        decoded = json.loads(fingerprint)
        assert list(decoded) == sorted(decoded)
        assert b": " not in fingerprint and b", " not in fingerprint


class TestAnswerState:
    def test_unbounded_answer_renders_as_strict_json(self):
        answer = ServedAnswer(
            sql="SELECT COUNT(*) FROM sales WHERE revenue > 1050",
            route=Route.ONLINE_AGG,
            rows=(ServedRow((), values={"count_star": 0.0}, errors={"count_star": 9.8}),),
            relative_error_bound=float("inf"),
            model_seconds=0.1,
            wall_seconds=0.0,
            supported=True,
            budget_met=False,
        )
        state = protocol.answer_to_state(answer)
        assert state["relative_error_bound"] is None
        assert json.loads(json.dumps(state, allow_nan=False)) == state
