"""Unit tests for snippet-answer covariance factors (Section 4)."""

import numpy as np
import pytest

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


@pytest.fixture()
def domains():
    return AttributeDomains(
        numeric={"x": NumericDomain("x", 0.0, 10.0, 0.01)},
        categorical={"c": CategoricalDomain("c", 5)},
    )


@pytest.fixture()
def key():
    return SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")


def snippet(key, x_range=None, categories=None):
    numeric = (NumericRange("x", *x_range),) if x_range else ()
    categorical = (
        (CategoricalConstraint("c", frozenset(categories), 5),) if categories else ()
    )
    return Snippet(
        key=key,
        region=Region(numeric_ranges=numeric, categorical_constraints=categorical),
        raw_answer=0.0,
        raw_error=0.1,
    )


@pytest.fixture()
def covariance(domains, key):
    model = AggregateModel(key=key, length_scales={"x": 2.0})
    return SnippetCovariance(domains, model)


class TestFactors:
    def test_identical_regions_have_maximal_factor(self, covariance, key):
        a = snippet(key, (1.0, 3.0))
        matrix = covariance.factor_matrix([a, a])
        assert matrix[0, 1] == pytest.approx(matrix[0, 0])
        assert matrix[0, 0] <= 1.0 + 1e-12

    def test_overlap_increases_factor(self, covariance, key):
        base = snippet(key, (0.0, 4.0))
        overlapping = snippet(key, (2.0, 6.0))
        disjoint_near = snippet(key, (5.0, 9.0))
        matrix = covariance.factor_matrix([base, overlapping, disjoint_near])
        assert matrix[0, 1] > matrix[0, 2]

    def test_matrix_symmetric_and_consistent_with_vector(self, covariance, key):
        snippets = [snippet(key, (i, i + 2.0)) for i in range(0, 8, 2)]
        matrix = covariance.factor_matrix(snippets)
        np.testing.assert_allclose(matrix, matrix.T, rtol=1e-12)
        new = snippet(key, (3.0, 5.0))
        vector = covariance.factor_matrix(snippets, [new]).ravel()
        full = covariance.factor_matrix(snippets + [new])
        np.testing.assert_allclose(vector, full[:-1, -1], rtol=1e-10)
        assert covariance.factor_matrix([new])[0, 0] == full[-1, -1]

    def test_matrix_positive_semidefinite(self, covariance, key, rng):
        snippets = []
        for _ in range(20):
            start = rng.uniform(0, 8)
            snippets.append(snippet(key, (start, start + rng.uniform(0.2, 2.0))))
        matrix = covariance.factor_matrix(snippets)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > -1e-8

    def test_unconstrained_region_uses_full_domain(self, covariance, key):
        full = snippet(key, None)
        narrow = snippet(key, (4.0, 5.0))
        matrix = covariance.factor_matrix([full, narrow])
        # A narrow range overlaps the full domain, so the cross factor is
        # positive, and the implied correlation never exceeds one.
        assert matrix[0, 1] > 0
        correlation = matrix[0, 1] / np.sqrt(matrix[0, 0] * matrix[1, 1])
        assert correlation <= 1.0 + 1e-9

    def test_empty_input(self, covariance):
        assert covariance.factor_matrix([]).shape == (0, 0)


class TestCategoricalFactors:
    def test_same_category_positive_disjoint_zero(self, covariance, key):
        east = snippet(key, (0.0, 5.0), categories={"east"})
        east_too = snippet(key, (0.0, 5.0), categories={"east"})
        west = snippet(key, (0.0, 5.0), categories={"west"})
        matrix = covariance.factor_matrix([east, east_too, west])
        assert matrix[0, 1] > 0
        assert matrix[0, 2] == pytest.approx(0.0)

    def test_unconstrained_categorical_shares_with_constrained(self, covariance, key):
        every = snippet(key, (0.0, 5.0))
        east = snippet(key, (0.0, 5.0), categories={"east"})
        matrix = covariance.factor_matrix([every, east])
        assert matrix[0, 1] > 0
        # The factor with a single category out of 5 is 1/5 of the aligned case.
        assert matrix[0, 1] == pytest.approx(matrix[1, 1] / 5.0, rel=1e-6)

    def test_partial_overlap(self, covariance, key):
        ab = snippet(key, (0.0, 5.0), categories={"a", "b"})
        bc = snippet(key, (0.0, 5.0), categories={"b", "c"})
        matrix = covariance.factor_matrix([ab, bc])
        # Same numeric range; categorical factor is 1/4 for the pair versus
        # 2/4 for each snippet with itself, so the cross factor is half the
        # diagonal one.
        assert matrix[0, 1] == pytest.approx(matrix[0, 0] / 2.0, rel=1e-6)


class TestVectorizedCategoricalFactor:
    """The membership-matrix path must match pairwise intersection_size."""

    @staticmethod
    def _random_constraint(rng, universe, domain_size):
        if rng.random() < 0.25:
            return CategoricalConstraint(name="c", values=None, domain_size=domain_size)
        count = int(rng.integers(0, len(universe)))
        chosen = rng.choice(len(universe), size=count, replace=False)
        return CategoricalConstraint(
            name="c",
            values=frozenset(universe[i] for i in chosen),
            domain_size=domain_size,
        )

    def test_matches_pairwise_reference(self):
        from repro.core.covariance import _SetSlots

        rng = np.random.default_rng(17)
        universe = [f"v{i}" for i in range(9)] + [3, 7.5]
        for _ in range(100):
            rows = [
                self._random_constraint(rng, universe, 11)
                for _ in range(int(rng.integers(1, 7)))
            ]
            cols = [
                self._random_constraint(rng, universe, 11)
                for _ in range(int(rng.integers(1, 7)))
            ]
            row_slots = _SetSlots.empty(11).slotted([c.values for c in rows])[0]
            col_slots = _SetSlots.empty(11).slotted([c.values for c in cols])[0]
            factors = row_slots.factors(col_slots)
            for first_slot, first in enumerate(row_slots.keys):
                for second_slot, second in enumerate(col_slots.keys):
                    one = CategoricalConstraint("c", first, 11)
                    two = CategoricalConstraint("c", second, 11)
                    expected = one.intersection_size(two) / (
                        max(one.size, 1) * max(two.size, 1)
                    )
                    assert factors[first_slot, second_slot] == expected

    def test_self_intersection_is_the_size(self, domains, key):
        """A set meets itself in its size: the diagonal is ``size / size^2``
        times the numeric factor, and each entry has the bits of that
        snippet's block alone."""
        constrained = snippet(key, (0.0, 2.0), categories={"a", "b"})
        unconstrained = snippet(key, (0.0, 2.0))
        covariance = SnippetCovariance(domains, AggregateModel(key=key))
        matrix = covariance.factor_matrix([constrained, unconstrained])
        assert matrix[0, 0] / matrix[1, 1] == pytest.approx((2 / 4) / (5 / 25))
        for position, one in enumerate([constrained, unconstrained]):
            assert matrix[position, position] == covariance.factor_matrix([one])[0, 0]


class TestAggregateModel:
    def test_length_scale_fallback_to_domain_width(self, domains, key):
        model = AggregateModel(key=key)
        assert model.length_scale("x", domains) == pytest.approx(10.0)

    def test_with_length_scales_merges(self, key):
        model = AggregateModel(key=key, length_scales={"x": 1.0})
        updated = model.with_length_scales({"y": 2.0})
        assert updated.length_scales == {"x": 1.0, "y": 2.0}

    def test_unknown_attribute_raises(self, domains, key):
        from repro.errors import InferenceError

        model = AggregateModel(key=key)
        with pytest.raises(InferenceError):
            model.length_scale("missing", domains)

    def test_longer_scale_means_higher_cross_factor(self, domains, key):
        near = snippet(key, (0.0, 1.0))
        far = snippet(key, (6.0, 7.0))
        short = SnippetCovariance(domains, AggregateModel(key=key, length_scales={"x": 0.5}))
        long = SnippetCovariance(domains, AggregateModel(key=key, length_scales={"x": 8.0}))
        assert long.factor_matrix([near, far])[0, 1] > short.factor_matrix([near, far])[0, 1]
