"""The compiled covariance kernel against the per-attribute reference.

``SnippetCovariance`` computes a block as one batched squared-exponential
evaluation over every numeric attribute's distinct range pairs, one
membership product per categorical attribute and one ``take`` scatter per
attribute, multiplied in attribute order with the factor of an attribute
both sides leave at its full domain as a precomputed scalar.  The path it
replaced -- one array product per attribute, with its own closed-form
arithmetic -- lives in ``tests/oracles.py`` (``ReferenceCovariance``,
``factor_matrix``, ``factor_diagonal``); these tests hold the kernel to it
byte for byte on every block shape the model uses: the symmetric matrix of
``prepare``, an ask's cross block (one region and many), its corner, whose
diagonal must be the reference's diagonal (the prior variances), and a
block read the other way round.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import covariance as covariance_module
from repro.core.covariance import AggregateModel, SnippetCovariance
from repro.core.kernel import se_average_factors, se_coefficients
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
        # A resolution below the spacing of doubles at 1e20: a point range
        # keeps zero width, so its factors take the point-kernel branch.
        "w": NumericDomain("w", 1e20, 1e20 + 1e6, 1e-3),
    },
    categorical={"c": CategoricalDomain("c", 5), "d": CategoricalDomain("d", 3)},
)
MODEL = AggregateModel(key=KEY, length_scales={"x": 2.0, "y": 0.7, "w": 3e5})

NUMERIC_RANGES = {
    # (0, 10) spans x's full domain although it is written as a constraint.
    "x": st.one_of(
        st.sampled_from([(0.0, 4.0), (2.0, 6.0), (3.0, 3.0), (0.0, 10.0), (-30.0, 40.0)]),
        st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)).map(
            lambda pair: (pair[0], pair[0] + pair[1])
        ),
    ),
    "y": st.sampled_from([(-5.0, 0.0), (-1.0, 1.0)]),
    "z": st.sampled_from([(1.0, 1.0), (0.0, 2.0)]),
    "w": st.sampled_from([(1e20 + 5e5, 1e20 + 5e5), (1e20 + 2e5, 1e20 + 2e5), (1e20, 1e20 + 3e5)]),
}
VALUE_SETS = {
    # None is an explicit full-domain constraint.
    "c": st.one_of(
        st.none(), st.sets(st.sampled_from(["a", "b", "c", "e", 7]), max_size=3)
    ),
    "d": st.sampled_from([{"u"}, {"u", "v"}]),
}
ATTRIBUTES = sorted(NUMERIC_RANGES) + sorted(VALUE_SETS)


@st.composite
def snippet_lists(draw, min_size: int = 0, max_size: int = 6) -> list[Snippet]:
    """Snippets where each attribute is constrained by none, some or all of them."""
    constrained = draw(st.sets(st.sampled_from(ATTRIBUTES)))
    snippets = []
    for _ in range(draw(st.integers(min_size, max_size))):
        numeric = tuple(
            NumericRange(name, *draw(ranges))
            for name, ranges in NUMERIC_RANGES.items()
            if name in constrained and draw(st.booleans())
        )
        categorical = []
        for name, sets in VALUE_SETS.items():
            if name in constrained and draw(st.booleans()):
                values = draw(sets)
                categorical.append(
                    CategoricalConstraint(
                        name,
                        None if values is None else frozenset(values),
                        DOMAINS.categorical[name].size,
                    )
                )
        region = Region(numeric_ranges=numeric, categorical_constraints=tuple(categorical))
        snippets.append(Snippet(key=KEY, region=region, raw_answer=0.0, raw_error=0.1))
    return snippets


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


class TestKernelMatchesTheReference:
    @given(
        past=snippet_lists(),
        fresh=snippet_lists(min_size=2),
        one=snippet_lists(min_size=1, max_size=1),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_block_shape_is_bit_identical(self, past, fresh, one):
        kernel = SnippetCovariance(DOMAINS, MODEL)
        reference = oracles.ReferenceCovariance(DOMAINS, MODEL)
        layout = kernel.layout(past)
        blocks = {
            "symmetric": (kernel.factor_matrix(past), reference.factor_matrix(past)),
            "cross m>1": (
                kernel.factor_matrix(layout, fresh),
                reference.factor_matrix(past, fresh),
            ),
            "cross m=1": (kernel.factor_matrix(layout, one), reference.factor_matrix(past, one)),
            "corner m=1": (kernel.factor_matrix(one), reference.factor_matrix(one)),
            "corner m>1": (kernel.factor_matrix(fresh), reference.factor_matrix(fresh)),
            "transposed": (
                kernel.factor_matrix(fresh, layout),
                reference.factor_matrix(fresh, past),
            ),
            "diagonal m>1": (
                np.diag(kernel.factor_matrix(past + fresh)),
                reference.factor_diagonal(past + fresh),
            ),
            "diagonal m=1": (np.diag(kernel.factor_matrix(one)), reference.factor_diagonal(one)),
            "unfolded symmetric": (
                kernel.factor_matrix(past),
                oracles.factor_matrix(reference, past),
            ),
            "unfolded cross": (
                kernel.factor_matrix(past, one),
                oracles.factor_matrix(reference, past, one),
            ),
            "unfolded diagonal": (
                np.diag(kernel.factor_matrix(fresh)),
                oracles.factor_diagonal(reference, fresh),
            ),
        }
        for name, (actual, expected) in blocks.items():
            assert actual.shape == expected.shape, name
            assert actual.tobytes() == expected.tobytes(), name

    @given(past=snippet_lists(), fresh=snippet_lists())
    @settings(max_examples=100, deadline=None)
    def test_a_grown_layout_gives_the_factors_of_the_whole_list(self, past, fresh):
        kernel = SnippetCovariance(DOMAINS, MODEL)
        reference = oracles.ReferenceCovariance(DOMAINS, MODEL)
        grown = kernel.layout(past).appended(kernel.layout(fresh))
        everything = past + fresh
        assert_identical(kernel.factor_matrix(grown), reference.factor_matrix(everything))
        assert_identical(np.diag(kernel.factor_matrix(grown)), reference.factor_diagonal(everything))
        assert_identical(
            kernel.factor_matrix(grown, fresh), reference.factor_matrix(everything, fresh)
        )

    def test_the_point_kernel_branch_is_reached(self):
        """A zero-width range pair takes ``exp(-(midpoint difference / l)^2)``."""
        kernel = SnippetCovariance(DOMAINS, MODEL)
        regions = [
            Region(numeric_ranges=(NumericRange("w", 1e20 + 5e5, 1e20 + 5e5),)),
            Region(numeric_ranges=(NumericRange("w", 1e20 + 2e5, 1e20 + 2e5),)),
        ]
        low, high = kernel._numeric_range(regions[0].numeric_ranges[0], DOMAINS.numeric["w"])
        assert low == high
        matrix = kernel.factor_matrix(regions)
        assert_identical(matrix, oracles.ReferenceCovariance(DOMAINS, MODEL).factor_matrix(regions))
        difference = (1e20 + 5e5) - (1e20 + 2e5)
        assert matrix[0, 1] / matrix[0, 0] == pytest.approx(
            np.exp(-((difference / 3e5) ** 2)), rel=1e-12
        )


bounds = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
widths = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-7, max_value=1e-3),
    st.floats(min_value=1e-3, max_value=30.0),
)
scales = st.floats(min_value=0.05, max_value=2e3)


class TestTheEvaluatorIsTheOnePairFormula:
    """``se_average_factors`` over a batch of pairs with their own scales
    gives every pair the bits of the closed form evaluated on that pair
    alone (``oracles.se_average_factor``): the same operations in the same
    order, the zero floor, the point kernel of a zero width and the clip at
    one included (narrow ranges under a long scale round above one)."""

    @given(pairs=st.lists(st.tuples(bounds, widths, bounds, widths, scales), min_size=1,
                          max_size=40))  # fmt: skip
    @settings(max_examples=200, deadline=None)
    def test_every_pair_has_the_closed_form_bits(self, pairs):
        low_1, width_1, low_2, width_2, scale = (np.array(column) for column in zip(*pairs))
        high_1, high_2 = low_1 + width_1, low_2 + width_2
        batched = se_average_factors(low_1, high_1, low_2, high_2, se_coefficients(scale))
        for i in range(len(pairs)):
            one = oracles.se_average_factor(low_1[i], high_1[i], low_2[i], high_2[i], scale[i])
            assert float(batched[i]).hex() == float(one).hex(), pairs[i]

    def test_the_coefficients_are_the_one_pair_formulas_floats(self):
        """``l ** 2`` (C ``pow``) and ``l * l`` round differently for about
        one scale in a thousand; the coefficients are the former, as in the
        closed form, and so are the factors of those scales."""
        rng = np.random.default_rng(3)
        scale = [s for s in rng.uniform(0.05, 2e3, 200_000).tolist() if s * s != s**2]
        assert len(scale) > 20
        coefficients = se_coefficients(scale)
        assert coefficients[1].tolist() == [0.5 * math.sqrt(math.pi) * s for s in scale]
        assert coefficients[2].tolist() == [0.5 * s**2 for s in scale]
        low = rng.uniform(-5.0, 5.0, len(scale))
        high = low + rng.uniform(0.0, 3.0, len(scale))
        other = rng.uniform(-5.0, 5.0, len(scale))
        batched = se_average_factors(low, high, other, other + 1.0, coefficients)
        for i, s in enumerate(scale):
            one = oracles.se_average_factor(low[i], high[i], other[i], other[i] + 1.0, s)
            assert float(batched[i]).hex() == float(one).hex()

    def test_the_clip_is_reached(self):
        rng = np.random.default_rng(0)
        low = rng.uniform(-10.0, 10.0, 2000)
        high = low + 10.0 ** rng.uniform(-5.0, -3.0, 2000)
        scale = 10.0 ** rng.uniform(1.0, 2.0, 2000)
        factors = se_average_factors(low, high, low, high, se_coefficients(scale))
        raw = np.array(
            [float(oracles.se_double_integral(a, b, a, b, s)) for a, b, s in zip(low, high, scale)]
        ) / (high - low) ** 2
        assert (raw > 1.0).any() and factors.max() == 1.0


def _snippet(region: Region) -> Snippet:
    return Snippet(key=KEY, region=region, raw_answer=0.0, raw_error=0.1)


class TestFullDomainAttributesFold:
    """An attribute both sides of a block leave at its full domain is one
    precomputed scalar: it reaches the evaluator only as the pairs of the
    attributes some region constrains."""

    @pytest.fixture
    def evaluated(self, monkeypatch) -> list[int]:
        pairs: list[int] = []
        evaluate = covariance_module.se_average_factors

        def counting(*args, **kwargs):
            pairs.append(len(args[0]))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(covariance_module, "se_average_factors", counting)
        return pairs

    def test_only_constrained_numeric_pairs_are_evaluated(self, evaluated):
        kernel = SnippetCovariance(DOMAINS, MODEL)
        evaluated.clear()  # the compiled full-domain scalars
        past = [
            _snippet(Region(numeric_ranges=(NumericRange("x", low, low + 1.0),)))
            for low in (0.0, 2.0, 5.0, 2.0)
        ]
        fresh = [_snippet(Region(categorical_constraints=(
            CategoricalConstraint("c", frozenset({"a"}), 5),
        )))]  # fmt: skip
        kernel.factor_matrix(past, fresh)
        assert evaluated == [3]  # three distinct x ranges x the full one
        evaluated.clear()
        kernel.factor_matrix(fresh)
        assert evaluated == []  # no numeric attribute is constrained

    def test_the_scalars_are_the_pair_evaluations_bits(self):
        kernel = SnippetCovariance(DOMAINS, MODEL)
        reference = oracles.ReferenceCovariance(DOMAINS, MODEL)
        unconstrained = [_snippet(Region()), _snippet(Region())]
        assert_identical(
            kernel.factor_matrix(unconstrained),
            oracles.factor_matrix(reference, unconstrained),
        )
