"""Covariances between query-snippet answers (Section 4, Appendix F.2).

The covariance between two snippet answers decomposes into a product of
per-attribute factors (Equation 10): for numeric attributes, the analytic
double integral of the squared-exponential kernel over the two predicate
ranges; for categorical attributes, the size of the intersection of the two
value sets (Appendix F.2).

This module works with *normalised* factors: every numeric factor is the
double integral divided by both range widths and every categorical factor is
the intersection size divided by both set sizes, so each per-attribute factor
lies in ``[0, 1]`` and the product is the correlation structure of *averages*
of the latent inter-tuple process over the two regions.  AVG snippets are
such averages directly; FREQ snippets are converted to densities (answer
divided by the region's volume fraction) before inference and converted back
afterwards, which is algebraically equivalent to the unnormalised treatment
in the paper but numerically far better behaved.

Unconstrained attributes are treated as spanning their full domain, so the
same formula applies uniformly to every pair of snippets.  An attribute that
neither side of a block constrains therefore adds one and the same factor to
every entry; :class:`SnippetCovariance` computes that factor once per model
and multiplies it in as a scalar.  The overall signal
variance ``sigma_g^2`` multiplying the factors is calibrated in
:mod:`repro.core.prior` / :mod:`repro.core.inference` so that the model's
marginal variances match the empirical variance of past answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core import linalg
from repro.core.kernel import se_average_factor
from repro.core.regions import (
    AttributeDomains,
    CategoricalConstraint,
    NumericDomain,
    NumericRange,
    Region,
)
from repro.core.snippet import Snippet, SnippetKey
from repro.errors import InferenceError


@dataclass(frozen=True)
class AggregateModel:
    """Learned correlation parameters for one aggregate function ``g``.

    ``length_scales`` maps numeric attribute names to the paper's ``l_{g,k}``;
    attributes absent from the mapping fall back to their domain width (the
    optimisation starting point used in Appendix A).
    """

    key: SnippetKey
    length_scales: Mapping[str, float] = field(default_factory=dict)

    def length_scale(self, attribute: str, domains: AttributeDomains) -> float:
        scale = self.length_scales.get(attribute)
        if scale is not None and scale > 0:
            return float(scale)
        domain = domains.numeric.get(attribute)
        if domain is None:
            raise InferenceError(f"no numeric domain for attribute {attribute!r}")
        return domain.width

    def with_length_scales(self, length_scales: Mapping[str, float]) -> "AggregateModel":
        merged = dict(self.length_scales)
        merged.update(length_scales)
        return AggregateModel(key=self.key, length_scales=merged)


def _intersection_counts(
    rows: Sequence[CategoricalConstraint], cols: Sequence[CategoricalConstraint]
) -> np.ndarray:
    """Pairwise ``intersection_size`` matrix via membership-matrix products.

    Values are indexed in first-seen order (they may mix types, so no sort);
    the boolean membership matrices multiply into the full count matrix in
    one BLAS call.  Rows/columns for unconstrained (full-domain) constraints
    are patched with the other side's size, per
    :meth:`CategoricalConstraint.intersection_size`.
    """
    value_ids: dict = {}
    for constraint in list(rows) + list(cols):
        if constraint.values is not None:
            for value in constraint.values:
                value_ids.setdefault(value, len(value_ids))

    def membership(constraints: Sequence[CategoricalConstraint]) -> np.ndarray:
        matrix = np.zeros((len(constraints), max(len(value_ids), 1)), dtype=np.float64)
        for position, constraint in enumerate(constraints):
            if constraint.values is not None:
                for value in constraint.values:
                    matrix[position, value_ids[value]] = 1.0
        return matrix

    counts = membership(rows) @ membership(cols).T
    row_none = np.array([c.values is None for c in rows], dtype=bool)
    col_none = np.array([c.values is None for c in cols], dtype=bool)
    if row_none.any():
        col_sizes = np.array([c.size for c in cols], dtype=np.float64)
        counts[row_none, :] = col_sizes[None, :]
    if col_none.any():
        row_sizes = np.array([c.size for c in rows], dtype=np.float64)
        counts[:, col_none] = row_sizes[:, None]
    if row_none.any() and col_none.any():
        # Both unconstrained: the whole domain intersects itself.
        domain_sizes = np.array([c.domain_size for c in rows], dtype=np.float64)
        counts[np.ix_(row_none, col_none)] = domain_sizes[row_none, None]
    return counts


@dataclass(frozen=True)
class _NumericColumn:
    """Distinct ranges of one numeric attribute over a snippet list."""

    slots: dict[tuple[float, float], int]  # range -> position in lows/highs
    lows: np.ndarray  # (r,) distinct lower bounds, first-seen order
    highs: np.ndarray  # (r,) distinct upper bounds
    index: np.ndarray  # (size,) int64 slot of every snippet

    @classmethod
    def of(cls, ranges: Sequence[tuple[float, float]]) -> "_NumericColumn":
        """The column of one row per range."""
        slots: dict[tuple[float, float], int] = {}
        index = np.fromiter(
            (slots.setdefault(bounds, len(slots)) for bounds in ranges),
            dtype=np.int64,
            count=len(ranges),
        )
        lows, highs = np.array(list(slots), dtype=np.float64).reshape(-1, 2).T.copy()
        return cls(slots, lows, highs, index)

    def appended(self, other: "_NumericColumn") -> "_NumericColumn":
        """This column followed by ``other``'s rows (neither is modified).

        ``other``'s distinct ranges take their slots here in first-seen
        order, so the result equals the column of both row lists at once.
        """
        slots = dict(self.slots)
        remap = np.fromiter(
            (slots.setdefault(bounds, len(slots)) for bounds in other.slots),
            dtype=np.int64,
            count=len(other.slots),
        )
        added = remap >= len(self.slots)
        return _NumericColumn(
            slots,
            np.concatenate([self.lows, other.lows[added]]),
            np.concatenate([self.highs, other.highs[added]]),
            np.concatenate([self.index, remap[other.index]]),
        )


@dataclass(frozen=True)
class _CategoricalColumn:
    """Distinct value sets of one categorical attribute over a snippet list."""

    slots: dict[frozenset | None, int]  # value set -> position in constraints
    constraints: tuple[CategoricalConstraint, ...]  # distinct, first-seen order
    index: np.ndarray  # (size,) int64 slot of every snippet

    @classmethod
    def of(cls, constraints: Sequence[CategoricalConstraint]) -> "_CategoricalColumn":
        """The column of one row per constraint."""
        slots: dict[frozenset | None, int] = {}
        distinct: list[CategoricalConstraint] = []
        index = _slot_constraints(slots, distinct, constraints)
        return cls(slots, tuple(distinct), index)

    def appended(self, other: "_CategoricalColumn") -> "_CategoricalColumn":
        """This column followed by ``other``'s rows (neither is modified).

        ``other``'s distinct value sets take their slots here in first-seen
        order, so the result equals the column of both row lists at once.
        """
        slots = dict(self.slots)
        distinct = list(self.constraints)
        remap = _slot_constraints(slots, distinct, other.constraints)
        return _CategoricalColumn(
            slots, tuple(distinct), np.concatenate([self.index, remap[other.index]])
        )


def _slot_constraints(
    slots: dict[frozenset | None, int],
    distinct: list[CategoricalConstraint],
    constraints: Sequence[CategoricalConstraint],
) -> np.ndarray:
    """The slot of every constraint, adding unseen value sets to both maps."""
    index = np.empty(len(constraints), dtype=np.int64)
    for position, constraint in enumerate(constraints):
        slot = slots.setdefault(constraint.values, len(slots))
        if slot == len(distinct):
            distinct.append(constraint)
        index[position] = slot
    return index


def _categorical_block(row: _CategoricalColumn, col: _CategoricalColumn) -> np.ndarray:
    """Factors between the distinct value sets of one categorical attribute."""
    base = _intersection_counts(row.constraints, col.constraints)
    row_sizes = np.array([max(c.size, 1) for c in row.constraints], dtype=np.float64)
    col_sizes = np.array([max(c.size, 1) for c in col.constraints], dtype=np.float64)
    base /= row_sizes[:, None] * col_sizes[None, :]
    return base


def _spans_categorical_domain(column: _CategoricalColumn) -> bool:
    """Whether every snippet of ``column`` leaves the attribute unconstrained."""
    return len(column.constraints) == 1 and column.constraints[0].values is None


@dataclass(frozen=True)
class RegionEncoding:
    """Columnar, deduplicated encoding of a snippet list's predicate regions.

    One column per domain attribute holds the attribute's *distinct*
    constraints (unconstrained attributes spanning their full domain) and an
    ``int64`` index mapping every snippet to its distinct entry.  Produced
    by :meth:`SnippetCovariance.encode`; it depends on the attribute domains
    only, not on the length scales, so it is built once per snippet list and
    every factor computation afterwards is array work.
    """

    size: int
    numeric: dict[str, _NumericColumn]  # in sorted attribute order
    categorical: dict[str, _CategoricalColumn]  # in sorted attribute order

    def appended(self, other: "RegionEncoding") -> "RegionEncoding":
        """The encoding of this list followed by ``other``'s (neither is
        modified): equal to encoding both lists at once, without touching a
        region again."""
        return RegionEncoding(
            size=self.size + other.size,
            numeric={
                name: column.appended(other.numeric[name])
                for name, column in self.numeric.items()
            },
            categorical={
                name: column.appended(other.categorical[name])
                for name, column in self.categorical.items()
            },
        )


class SnippetCovariance:
    """Computes normalised covariance factors between snippet regions.

    The factors returned by this class are *unit-variance* correlations (the
    product over attributes of per-attribute factors in ``[0, 1]``); callers
    multiply by the calibrated signal variance ``sigma_g^2``.

    Every factor method takes either plain snippet lists or their
    :class:`RegionEncoding`; passing the encoding of a list that is used
    repeatedly (the past snippets of a prepared model) skips the per-snippet
    Python work.  Factors are computed element-wise on the distinct
    constraint pairs and scattered through the index arrays, so the values
    do not depend on which form was passed.
    """

    def __init__(self, domains: AttributeDomains, model: AggregateModel):
        self.domains = domains
        self.model = model
        # The range an unconstrained region spans on each numeric attribute.
        self._full_ranges = {
            name: self._numeric_range(None, domain)
            for name, domain in domains.numeric.items()
        }
        # Attribute -> factor between two regions that leave it unconstrained.
        # It depends only on the domain and the length scale, both fixed for
        # this object's life, so it holds at most one float per attribute.
        self._full_domain_factors: dict[str, float] = {}

    # ------------------------------------------------------------------ public

    def encode(
        self, snippets: Sequence[Snippet] | Sequence[Region] | RegionEncoding
    ) -> RegionEncoding:
        """Encode the regions of ``snippets`` (snippets or bare regions).

        An encoding passed as ``snippets`` is returned as it is, which is
        what lets the factor methods take either form.
        """
        if isinstance(snippets, RegionEncoding):
            return snippets
        regions = [
            item if isinstance(item, Region) else item.region for item in snippets
        ]
        numeric_rows = [region.numeric_by_name() for region in regions]
        categorical_rows = [region.categorical_by_name() for region in regions]
        numeric = {
            name: _NumericColumn.of(
                [self._numeric_range(row.get(name), domain) for row in numeric_rows]
            )
            for name, domain in sorted(self.domains.numeric.items())
        }
        categorical: dict[str, _CategoricalColumn] = {}
        for name, domain in sorted(self.domains.categorical.items()):
            # An unconstrained region spans the attribute's whole domain.
            full = CategoricalConstraint(name=name, values=None, domain_size=domain.size)
            categorical[name] = _CategoricalColumn.of(
                [row.get(name, full) for row in categorical_rows]
            )
        return RegionEncoding(
            size=len(regions), numeric=numeric, categorical=categorical
        )

    def factor_matrix(
        self,
        rows: Sequence[Snippet] | RegionEncoding,
        cols: Sequence[Snippet] | RegionEncoding | None = None,
    ) -> np.ndarray:
        """Pairwise factor matrix between two snippet lists.

        When ``cols`` is omitted the matrix is the symmetric factor matrix of
        ``rows`` against itself.
        """
        symmetric = cols is None
        row_encoding = self.encode(rows)
        col_encoding = row_encoding if symmetric else self.encode(cols)
        result = np.ones((row_encoding.size, col_encoding.size), dtype=np.float64)
        if result.size == 0:
            return result
        for name, row in row_encoding.numeric.items():
            col = col_encoding.numeric[name]
            if self._spans_numeric_domain(name, row) and self._spans_numeric_domain(name, col):
                result *= self._full_domain_factor(
                    name, lambda: self._numeric_block(name, row, col)
                )
            else:
                result *= self.numeric_factor(name, row_encoding, col_encoding)
        for name, row in row_encoding.categorical.items():
            col = col_encoding.categorical[name]
            if _spans_categorical_domain(row) and _spans_categorical_domain(col):
                result *= self._full_domain_factor(name, lambda: _categorical_block(row, col))
            else:
                result *= self.categorical_factor(name, row_encoding, col_encoding)
        if symmetric:
            # Exact symmetry for the factorisation downstream; the matrix is
            # symmetric by construction up to float accumulation order.
            result = linalg.symmetrize(result)
        return result

    def factor_diagonal(
        self, snippets: Sequence[Snippet] | RegionEncoding
    ) -> np.ndarray:
        """Self-factors of every snippet, without forming the full matrix.

        This is the diagonal of ``factor_matrix(snippets)`` computed in
        O(m) (after range deduplication) rather than O(m^2); batched
        inference needs exactly the diagonal for the prior variances of the
        new snippets.
        """
        encoding = self.encode(snippets)
        result = np.ones(encoding.size, dtype=np.float64)
        if encoding.size == 0:
            return result
        for name, column in encoding.numeric.items():
            if self._spans_numeric_domain(name, column):
                result *= self._full_domain_factor(
                    name, lambda: self._numeric_block(name, column, column)
                )
                continue
            base = np.asarray(
                se_average_factor(
                    column.lows,
                    column.highs,
                    column.lows,
                    column.highs,
                    self.model.length_scale(name, self.domains),
                ),
                dtype=np.float64,
            )
            result *= base[column.index]
        for name, column in encoding.categorical.items():
            if _spans_categorical_domain(column):
                result *= self._full_domain_factor(
                    name, lambda: _categorical_block(column, column)
                )
                continue
            # A constraint's self-intersection is just its size, so the
            # normalised self-factor is size / max(size, 1)^2.
            sizes = np.array(
                [constraint.size for constraint in column.constraints], dtype=np.float64
            )
            factors = sizes / np.square(np.maximum(sizes, 1.0))
            result *= factors[column.index]
        return result

    # ---------------------------------------------------------------- per-type

    def numeric_factor(
        self, name: str, rows: RegionEncoding, cols: RegionEncoding
    ) -> np.ndarray:
        """Normalised double-integral factors of one numeric attribute.

        Snippets in a workload reuse a small number of distinct ranges per
        attribute (most commonly the full domain), so factors are computed on
        the distinct ranges and scattered back, keeping the cost independent
        of the number of snippet pairs in the common case.  Rows and columns
        keep *separate* distinct sets, so a rectangular block (the hot case:
        an ``(n, k)`` cross block against a few appended or new snippets)
        costs O(distinct_rows x distinct_cols) kernel evaluations rather
        than the square of the union.
        """
        row, col = rows.numeric[name], cols.numeric[name]
        return self._numeric_block(name, row, col)[np.ix_(row.index, col.index)]

    def categorical_factor(
        self, name: str, rows: RegionEncoding, cols: RegionEncoding
    ) -> np.ndarray:
        """Normalised intersection factors of one categorical attribute.

        Pairwise intersection sizes between the distinct constraints are
        computed as one membership-matrix product: with ``M`` the boolean
        (constraint x distinct value) membership matrix, ``M @ M.T`` yields
        every ``|F_i,k intersect F_j,k|`` at once.  Unconstrained entries
        (``values is None``, the full domain) are patched afterwards: their
        intersection with any value set is that set's size, and with another
        unconstrained entry the domain size.
        """
        row, col = rows.categorical[name], cols.categorical[name]
        return _categorical_block(row, col)[np.ix_(row.index, col.index)]

    # --------------------------------------------------------------- internals

    def _numeric_block(
        self, name: str, row: _NumericColumn, col: _NumericColumn
    ) -> np.ndarray:
        """Factors between the distinct ranges of one numeric attribute."""
        base = se_average_factor(
            row.lows[:, None],
            row.highs[:, None],
            col.lows[None, :],
            col.highs[None, :],
            self.model.length_scale(name, self.domains),
        )
        return np.asarray(base, dtype=np.float64)

    def _spans_numeric_domain(self, name: str, column: _NumericColumn) -> bool:
        """Whether every snippet of ``column`` spans the attribute's full domain."""
        return len(column.slots) == 1 and self._full_ranges[name] in column.slots

    def _full_domain_factor(self, name: str, block: Callable[[], np.ndarray]) -> float:
        """The memoised factor between two full-domain columns of ``name``.

        ``block`` computes it on first use from the same one-slot columns the
        unfolded path would use, so the scalar equals every entry of the
        array it replaces bit for bit.
        """
        factor = self._full_domain_factors.get(name)
        if factor is None:
            factor = self._full_domain_factors[name] = float(block()[0, 0])
        return factor

    @staticmethod
    def _numeric_range(
        constrained: NumericRange | None, domain: NumericDomain
    ) -> tuple[float, float]:
        """The range a region spans on one attribute, clamped to its domain."""
        if constrained is not None:
            low = max(constrained.low, domain.low - domain.width)
            high = min(constrained.high, domain.high + domain.width)
            if high - low < domain.resolution:
                center = 0.5 * (low + high)
                low = center - 0.5 * domain.resolution
                high = center + 0.5 * domain.resolution
            return (low, high)
        return (domain.low, domain.high if domain.high > domain.low else domain.low + domain.resolution)
