"""The region encoding behind the covariance factors.

``SnippetCovariance.encode`` turns a snippet list into per-attribute distinct
constraints plus index arrays; every factor method accepts either form.
These tests hold the three ways of saying "these snippets" -- a plain list,
its encoding, and an encoding grown from a prefix (``appended``) -- to
*bit-identical* factors, pin the grown encoding to the one-shot encoding
column by column, and hold all of them to a pairwise scalar oracle written
straight from Equation 10 / Appendix F.2.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.covariance import AggregateModel, RegionEncoding, SnippetCovariance
from repro.core.kernel import se_average_factor
from repro.core.regions import (
    AttributeDomains,
    CategoricalConstraint,
    CategoricalDomain,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import AggregateKind, Snippet, SnippetKey

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
DOMAINS = AttributeDomains(
    numeric={
        "x": NumericDomain("x", 0.0, 10.0, 0.01),
        "y": NumericDomain("y", -5.0, 5.0, 0.5),
    },
    categorical={"c": CategoricalDomain("c", 5), "d": CategoricalDomain("d", 3)},
)
COVARIANCE = SnippetCovariance(
    DOMAINS, AggregateModel(key=KEY, length_scales={"x": 2.0, "y": 0.7})
)

# Few distinct values per attribute, so duplicate constraints (the case the
# deduplication exists for) are the norm rather than the exception.
x_ranges = st.one_of(
    st.none(),
    st.sampled_from([(0.0, 4.0), (2.0, 6.0), (3.0, 3.0), (-30.0, 40.0)]),
    st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    ),
)
y_ranges = st.one_of(st.none(), st.sampled_from([(-5.0, 0.0), (-1.0, 1.0)]))
c_sets = st.one_of(
    st.none(), st.sets(st.sampled_from(["a", "b", "c", "e", 7]), max_size=3)
)
d_sets = st.one_of(st.none(), st.sampled_from([{"u"}, {"u", "v"}]))


@st.composite
def snippets(draw) -> Snippet:
    numeric = tuple(
        NumericRange(name, *bounds)
        for name, bounds in (("x", draw(x_ranges)), ("y", draw(y_ranges)))
        if bounds is not None
    )
    categorical = tuple(
        CategoricalConstraint(name, frozenset(values), DOMAINS.categorical[name].size)
        for name, values in (("c", draw(c_sets)), ("d", draw(d_sets)))
        if values is not None
    )
    region = Region(numeric_ranges=numeric, categorical_constraints=categorical)
    return Snippet(key=KEY, region=region, raw_answer=0.0, raw_error=0.1)


snippet_lists = st.lists(snippets(), max_size=7)


def oracle_factor(first: Snippet, second: Snippet) -> float:
    """One pair's factor, attribute by attribute, in multiplication order."""
    covariance = COVARIANCE
    value = 1.0
    for name, domain in sorted(DOMAINS.numeric.items()):
        low_1, high_1 = covariance._numeric_range(
            first.region.numeric_by_name().get(name), domain
        )
        low_2, high_2 = covariance._numeric_range(
            second.region.numeric_by_name().get(name), domain
        )
        scale = covariance.model.length_scale(name, DOMAINS)
        value *= float(se_average_factor(low_1, high_1, low_2, high_2, scale))
    for name, domain in sorted(DOMAINS.categorical.items()):
        full = CategoricalConstraint(name, None, domain.size)
        set_1 = first.region.categorical_by_name().get(name, full)
        set_2 = second.region.categorical_by_name().get(name, full)
        value *= set_1.intersection_size(set_2) / (
            max(set_1.size, 1) * max(set_2.size, 1)
        )
    return value


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestEncodingEquivalence:
    @given(past=snippet_lists, fresh=snippet_lists)
    @settings(max_examples=150, deadline=None)
    def test_three_forms_give_bit_identical_factors(self, past, fresh):
        covariance = COVARIANCE
        everything = past + fresh
        encoded = covariance.encode(everything)
        grown = covariance.encode(past).appended(covariance.encode(fresh))
        assert encoded.size == grown.size == len(everything)

        symmetric = covariance.factor_matrix(everything)
        assert_identical(covariance.factor_matrix(encoded), symmetric)
        assert_identical(covariance.factor_matrix(grown), symmetric)

        diagonal = covariance.factor_diagonal(everything)
        assert_identical(covariance.factor_diagonal(encoded), diagonal)
        assert_identical(covariance.factor_diagonal(grown), diagonal)

        # The rectangular (past x fresh) block -- the query-time shape --
        # with every mix of forms on the two sides.
        cross = covariance.factor_matrix(past, fresh)
        past_encoded, fresh_encoded = covariance.encode(past), covariance.encode(fresh)
        assert_identical(covariance.factor_matrix(past_encoded, fresh), cross)
        assert_identical(covariance.factor_matrix(past, fresh_encoded), cross)
        assert_identical(covariance.factor_matrix(past_encoded, fresh_encoded), cross)
        assert_identical(covariance.factor_matrix(grown, fresh_encoded)[: len(past)], cross)

    @given(rows=snippet_lists, cols=snippet_lists)
    @settings(max_examples=100, deadline=None)
    def test_factors_match_the_pairwise_oracle(self, rows, cols):
        covariance = COVARIANCE
        expected = np.array(
            [[oracle_factor(row, col) for col in cols] for row in rows], dtype=np.float64
        ).reshape(len(rows), len(cols))
        np.testing.assert_allclose(
            covariance.factor_matrix(rows, cols), expected, rtol=1e-13, atol=0.0
        )
        np.testing.assert_allclose(
            covariance.factor_diagonal(rows),
            [oracle_factor(row, row) for row in rows],
            rtol=1e-13,
            atol=0.0,
        )

    @given(past=snippet_lists, fresh=snippet_lists)
    @settings(max_examples=150, deadline=None)
    def test_grown_encoding_equals_the_one_shot_encoding(self, past, fresh):
        """``appended`` re-slots the fresh columns exactly as encoding the
        whole list at once would: same slots, same distinct constraints in
        the same order, same index arrays."""
        grown = COVARIANCE.encode(past).appended(COVARIANCE.encode(fresh))
        encoded = COVARIANCE.encode(past + fresh)
        assert grown.size == encoded.size
        assert list(grown.numeric) == list(encoded.numeric)
        for name, column in encoded.numeric.items():
            other = grown.numeric[name]
            assert list(other.slots.items()) == list(column.slots.items())
            assert_identical(other.lows, column.lows)
            assert_identical(other.highs, column.highs)
            assert_identical(other.index, column.index)
        assert list(grown.categorical) == list(encoded.categorical)
        for name, column in encoded.categorical.items():
            other = grown.categorical[name]
            assert list(other.slots.items()) == list(column.slots.items())
            assert other.constraints == column.constraints
            assert_identical(other.index, column.index)

    def test_encoding_an_encoding_is_the_identity(self):
        encoded = COVARIANCE.encode([])
        assert isinstance(encoded, RegionEncoding) and encoded.size == 0
        assert COVARIANCE.encode(encoded) is encoded
        assert COVARIANCE.factor_matrix(encoded).shape == (0, 0)
        assert COVARIANCE.factor_diagonal(encoded).shape == (0,)

    @given(past=snippet_lists, fresh=snippet_lists)
    @settings(max_examples=50, deadline=None)
    def test_growing_leaves_the_base_untouched(self, past, fresh):
        base = COVARIANCE.encode(past)
        before = {
            name: (dict(column.slots), column.index.copy())
            for name, column in {**base.numeric, **base.categorical}.items()
        }
        base.appended(COVARIANCE.encode(fresh))
        for name, column in {**base.numeric, **base.categorical}.items():
            slots, index = before[name]
            assert column.slots == slots
            assert np.array_equal(column.index, index)
