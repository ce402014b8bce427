"""The region layout behind the covariance factors.

``SnippetCovariance.layout`` turns a snippet list into per-attribute distinct
constraints plus an (attribute x snippet) slot array; every factor method
accepts either form.  These tests hold the three ways of saying "these
snippets" -- a plain list, its layout, and a layout grown from a prefix
(``appended``, how a prepared model's past side grows) -- to
*bit-identical* factors, pin the grown layout to the one-shot layout
attribute by attribute, and hold all of them to a pairwise scalar oracle
written straight from Equation 10 / Appendix F.2.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.covariance import AggregateModel, RegionLayout, SnippetCovariance
from repro.core.regions import (
    AttributeDomains,
    CategoricalConstraint,
    CategoricalDomain,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from tests.oracles import se_average_factor

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


class TestLayoutEquivalence:
    @given(past=snippet_lists, fresh=snippet_lists)
    @settings(max_examples=150, deadline=None)
    def test_three_forms_give_bit_identical_factors(self, past, fresh):
        covariance = COVARIANCE
        everything = past + fresh
        laid_out = covariance.layout(everything)
        grown = covariance.layout(past).appended(covariance.layout(fresh))
        assert laid_out.size == grown.size == len(everything)

        symmetric = covariance.factor_matrix(everything)
        assert_identical(covariance.factor_matrix(laid_out), symmetric)
        assert_identical(covariance.factor_matrix(grown), symmetric)

        # The rectangular (past x fresh) block -- the query-time shape --
        # with every mix of forms on the two sides.
        cross = covariance.factor_matrix(past, fresh)
        past_laid, fresh_laid = covariance.layout(past), covariance.layout(fresh)
        assert_identical(covariance.factor_matrix(past_laid, fresh), cross)
        assert_identical(covariance.factor_matrix(past, fresh_laid), cross)
        assert_identical(covariance.factor_matrix(past_laid, fresh_laid), cross)
        assert_identical(covariance.factor_matrix(grown, fresh_laid)[: len(past)], cross)

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
            np.diag(covariance.factor_matrix(rows)),
            [oracle_factor(row, row) for row in rows],
            rtol=1e-13,
            atol=0.0,
        )


def assert_same_layout(grown: RegionLayout, laid_out: RegionLayout) -> None:
    """Same slots in the same order, same distinct arrays, same index."""
    assert grown.size == laid_out.size
    assert len(grown.slots) == len(laid_out.slots)
    for mine, theirs in zip(grown.slots, laid_out.slots):
        assert type(mine) is type(theirs)
        assert list(mine.keys.items()) == list(theirs.keys.items())
        if hasattr(theirs, "bounds"):
            assert_identical(mine.bounds, theirs.bounds)
        else:
            assert mine.values == theirs.values
            assert_identical(mine.membership, theirs.membership)
            assert_identical(mine.sizes, theirs.sizes)
    assert_identical(grown.index, laid_out.index)


class TestGrowingALayout:
    @given(past=snippet_lists, fresh=st.lists(snippet_lists, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_a_grown_layout_equals_the_one_shot_layout(self, past, fresh):
        """``appended`` re-slots the fresh regions exactly as laying the
        whole list out at once would, however many steps it grows in."""
        grown = COVARIANCE.layout(past)
        everything = list(past)
        for batch in fresh:
            grown = grown.appended(COVARIANCE.layout(batch))
            everything += batch
            assert_same_layout(grown, COVARIANCE.layout(everything))

    def test_an_empty_layout(self):
        laid_out = COVARIANCE.layout([])
        assert isinstance(laid_out, RegionLayout) and laid_out.size == 0
        assert laid_out.appended(laid_out) is laid_out
        assert COVARIANCE.factor_matrix(laid_out).shape == (0, 0)

    @given(past=snippet_lists, first=snippet_lists, second=snippet_lists)
    @settings(max_examples=80, deadline=None)
    def test_growing_leaves_every_older_layout_untouched(self, past, first, second):
        """The newest layout grows in its buffer; a second growth of an
        older one copies, so both branches stay whole."""
        base = COVARIANCE.layout(past)
        before = (base.index.copy(), [dict(slots.keys) for slots in base.slots])
        newer = base.appended(COVARIANCE.layout(first))
        branch = base.appended(COVARIANCE.layout(second))
        for layout, expected in ((base, past), (newer, past + first), (branch, past + second)):
            assert_same_layout(layout, COVARIANCE.layout(expected))
        assert_identical(base.index, before[0])
        assert [dict(slots.keys) for slots in base.slots] == before[1]
