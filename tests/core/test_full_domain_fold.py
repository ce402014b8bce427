"""Attributes no snippet constrains fold to one memoised factor per model.

``SnippetCovariance.factor_matrix`` / ``factor_diagonal`` multiply in the
factor of an attribute that both sides of a block leave at its full domain
as one scalar, computed once per ``SnippetCovariance``.  The unfolded
per-attribute array product lives in ``tests/oracles.py``; these tests hold
the folded form to it byte for byte and check that the memo really spares
the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import covariance as covariance_module
from repro.core.covariance import AggregateModel, SnippetCovariance
from repro.core.regions import (
    AttributeDomains,
    CategoricalConstraint,
    CategoricalDomain,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from tests import oracles

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
DOMAINS = AttributeDomains(
    numeric={
        "x": NumericDomain("x", 0.0, 10.0, 0.01),
        "y": NumericDomain("y", -5.0, 5.0, 0.5),
        "z": NumericDomain("z", 1.0, 1.0, 0.25),  # a one-value domain
    },
    categorical={"c": CategoricalDomain("c", 5), "d": CategoricalDomain("d", 3)},
)
MODEL = AggregateModel(key=KEY, length_scales={"x": 2.0, "y": 0.7})

NUMERIC_RANGES = {
    # (0, 10) spans x's full domain although it is written as a constraint.
    "x": st.sampled_from([(0.0, 4.0), (2.0, 6.0), (3.0, 3.0), (0.0, 10.0), (-30.0, 40.0)]),
    "y": st.sampled_from([(-5.0, 0.0), (-1.0, 1.0)]),
    "z": st.sampled_from([(1.0, 1.0), (0.0, 2.0)]),
}
VALUE_SETS = {
    "c": st.sets(st.sampled_from(["a", "b", "c", "e", 7]), min_size=1, max_size=3),
    "d": st.sampled_from([{"u"}, {"u", "v"}]),
}
ATTRIBUTES = sorted(NUMERIC_RANGES) + sorted(VALUE_SETS)


@st.composite
def snippet_lists(draw, min_size: int = 0) -> list[Snippet]:
    """Snippets where each attribute is constrained by none, some or all of them."""
    constrained = draw(st.sets(st.sampled_from(ATTRIBUTES)))
    snippets = []
    for _ in range(draw(st.integers(min_size, 6))):
        numeric = tuple(
            NumericRange(name, *draw(ranges))
            for name, ranges in NUMERIC_RANGES.items()
            if name in constrained and draw(st.booleans())
        )
        categorical = tuple(
            CategoricalConstraint(name, frozenset(draw(sets)), DOMAINS.categorical[name].size)
            for name, sets in VALUE_SETS.items()
            if name in constrained and draw(st.booleans())
        )
        region = Region(numeric_ranges=numeric, categorical_constraints=categorical)
        snippets.append(Snippet(key=KEY, region=region, raw_answer=0.0, raw_error=0.1))
    return snippets


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestFoldedFactorsMatchTheOracle:
    @given(past=snippet_lists(), fresh=snippet_lists(), one=snippet_lists(min_size=1))
    @settings(max_examples=120, deadline=None)
    def test_square_rectangular_one_by_one_and_diagonal_blocks(self, past, fresh, one):
        covariance = SnippetCovariance(DOMAINS, MODEL)
        single = one[:1]
        # Twice each: the first call fills the memo, the second reads it.
        for _ in range(2):
            assert_identical(
                covariance.factor_matrix(past), oracles.factor_matrix(covariance, past)
            )
            assert_identical(
                covariance.factor_matrix(past, fresh),
                oracles.factor_matrix(covariance, past, fresh),
            )
            encoded = covariance.encode(past)
            assert_identical(
                covariance.factor_matrix(encoded, single),
                oracles.factor_matrix(covariance, encoded, single),
            )
            assert_identical(
                covariance.factor_matrix(single), oracles.factor_matrix(covariance, single)
            )
            assert_identical(
                covariance.factor_diagonal(past + fresh),
                oracles.factor_diagonal(covariance, past + fresh),
            )
            assert_identical(
                covariance.factor_diagonal(single), oracles.factor_diagonal(covariance, single)
            )


def _unconstrained_snippets(count: int) -> list[Snippet]:
    """Snippets that differ only in the value of categorical ``c``."""
    return [
        Snippet(
            key=KEY,
            region=Region(
                numeric_ranges=(),
                categorical_constraints=(
                    CategoricalConstraint("c", frozenset({value}), DOMAINS.categorical["c"].size),
                ),
            ),
            raw_answer=0.0,
            raw_error=0.1,
        )
        for value in ["a", "b", "c", "e", 7][:count]
    ]


class TestTheMemoSparesTheKernel:
    @pytest.fixture
    def kernel_calls(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        kernel = covariance_module.se_average_factor

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(covariance_module, "se_average_factor", counting)
        return calls

    def test_second_call_evaluates_no_numeric_kernel(self, kernel_calls):
        covariance = SnippetCovariance(DOMAINS, MODEL)
        past, fresh = _unconstrained_snippets(4), _unconstrained_snippets(2)
        covariance.factor_matrix(past, fresh)
        assert len(kernel_calls) == len(DOMAINS.numeric)
        kernel_calls.clear()
        covariance.factor_matrix(past, fresh)
        covariance.factor_matrix(fresh[:1])
        covariance.factor_diagonal(past)
        assert kernel_calls == []

    def test_a_constrained_attribute_still_evaluates_its_kernel(self, kernel_calls):
        covariance = SnippetCovariance(DOMAINS, MODEL)
        past = _unconstrained_snippets(3)
        narrow = Snippet(
            key=KEY,
            region=Region(numeric_ranges=(NumericRange("x", 2.0, 3.0),)),
            raw_answer=0.0,
            raw_error=0.1,
        )
        covariance.factor_matrix(past)
        kernel_calls.clear()
        covariance.factor_matrix(past, [narrow])
        assert len(kernel_calls) == 1  # x only; y and z come from the memo

    def test_second_call_evaluates_no_categorical_intersection(self, monkeypatch):
        calls: list[int] = []
        intersect = covariance_module._intersection_counts

        def counting(rows, cols):
            calls.append(1)
            return intersect(rows, cols)

        monkeypatch.setattr(covariance_module, "_intersection_counts", counting)
        covariance = SnippetCovariance(DOMAINS, MODEL)
        snippets = [
            Snippet(
                key=KEY,
                region=Region(numeric_ranges=(NumericRange("x", low, low + 1.0),)),
                raw_answer=0.0,
                raw_error=0.1,
            )
            for low in (0.0, 2.0, 5.0)
        ]
        covariance.factor_matrix(snippets)
        assert len(calls) == len(DOMAINS.categorical)
        calls.clear()
        covariance.factor_matrix(snippets, snippets[:1])
        assert calls == []
