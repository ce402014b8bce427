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
same formula applies uniformly to every pair of snippets.  The overall
signal variance ``sigma_g^2`` multiplying the factors is calibrated in
:mod:`repro.core.prior` / :mod:`repro.core.inference` so that the model's
marginal variances match the empirical variance of past answers.

:class:`SnippetCovariance` is the kernel of one model, compiled once: the
attribute order, each numeric attribute's length-scale coefficients, and
the factor between two full-domain regions of every attribute.  A region
list becomes a :class:`RegionLayout` (each attribute's distinct constraints
plus the slot of every region); a block between two layouts is one batched
squared-exponential evaluation over every numeric attribute's distinct
pairs (:func:`repro.core.kernel.se_average_factors`), one membership product
per categorical attribute, and one ``take`` per attribute scattering the
distinct factors to the block, multiplied in attribute order.

Same bits, whatever the batch: an entry of a block is
``((1 * f_1) * f_2) * ... * f_A`` over the attributes in the order sorted
numeric names, then sorted categorical names, where ``f_a`` depends only on
the two regions' constraints on ``a``.  Each ``f_a`` is computed by the same
IEEE operations whether its pair is evaluated alone or among thousands of
others (the evaluator is element-wise; intersection counts are exact small
integers), an attribute both sides leave at its full domain contributes its
precomputed scalar -- the very float the pair evaluation gives -- at its own
position, and scalars leading the product are folded into one float, which
is exact because the product starts at one.  So a block, its diagonal, a
one-region cross block and a symmetric matrix all agree bit for bit with
the per-attribute array product in ``tests/oracles.py``; in particular a
symmetric block's diagonal has the bits of each region's self-factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core import linalg
from repro.core.kernel import se_average_factors, se_coefficients
from repro.core.regions import (
    AttributeDomains,
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


# ---------------------------------------------------------------- the layout


class _RangeSlots:
    """The distinct ranges of one numeric attribute, in first-seen order.

    Never modified once made: a layout that meets a new range gets a new
    object, and layouts that meet none share this one.
    """

    __slots__ = ("keys", "bounds", "full", "spans")

    def __init__(
        self,
        keys: dict[tuple[float, float], int],
        bounds: np.ndarray,
        full: tuple[float, float],
    ):
        self.keys = keys  # range -> slot
        self.bounds = bounds  # (2, r): lows, then highs, slot by slot
        self.full = full
        # Every region spans the attribute's whole domain.
        self.spans = len(keys) == 1 and full in keys

    @classmethod
    def empty(cls, full: tuple[float, float]) -> "_RangeSlots":
        return cls({}, np.empty((2, 0), dtype=np.float64), full)

    def slotted(self, keys) -> tuple["_RangeSlots", list[int]]:
        """The slot of every range of ``keys``: this object when all are
        known, else a copy that appends the unseen ones in order."""
        grown, index, new = _slotted(self.keys, keys)
        if not new:
            return self, index
        added = np.array(new, dtype=np.float64).reshape(-1, 2).T
        return _RangeSlots(grown, np.concatenate([self.bounds, added], axis=1), self.full), index


class _SetSlots:
    """The distinct value sets of one categorical attribute, first-seen order.

    ``None`` is the full domain.  ``membership`` is the (set x value) 0/1
    matrix over ``values`` (value -> column, first seen); ``sizes`` holds
    every set's size and ``divisors`` its normaliser ``max(size, 1)``.
    Never modified once made, like :class:`_RangeSlots`.
    """

    __slots__ = ("keys", "domain_size", "values", "membership", "full", "any_full",
                 "sizes", "divisors", "spans")  # fmt: skip

    def __init__(
        self,
        keys: dict[frozenset | None, int],
        domain_size: int,
        values: dict,
        membership: np.ndarray,
        full: np.ndarray,
        sizes: np.ndarray,
    ):
        self.keys = keys
        self.domain_size = domain_size
        self.values = values
        self.membership = membership
        self.full = full
        self.any_full = None in keys
        self.sizes = sizes
        self.divisors = np.maximum(sizes, 1.0)
        self.spans = len(keys) == 1 and None in keys

    @classmethod
    def empty(cls, domain_size: int) -> "_SetSlots":
        return cls(
            {}, domain_size, {}, np.zeros((0, 1), dtype=np.float64),
            np.zeros(0, dtype=bool), np.zeros(0, dtype=np.float64),
        )  # fmt: skip

    def slotted(self, keys) -> tuple["_SetSlots", list[int]]:
        """As :meth:`_RangeSlots.slotted`; new values take the next columns."""
        grown, index, new = _slotted(self.keys, keys)
        if not new:
            return self, index
        values = dict(self.values)
        for key in new:
            for value in key or ():
                values.setdefault(value, len(values))
        known, width = self.membership.shape
        membership = np.zeros((len(grown), max(len(values), 1)), dtype=np.float64)
        membership[:known, :width] = self.membership
        for row, key in enumerate(new, start=known):
            membership[row, [values[value] for value in key or ()]] = 1.0
        full = np.concatenate([self.full, [key is None for key in new]])
        sizes = np.concatenate(
            [self.sizes, [self.domain_size if key is None else len(key) for key in new]]
        )
        return _SetSlots(grown, self.domain_size, values, membership, full, sizes), index

    def factors(self, other: "_SetSlots") -> np.ndarray:
        """``|S_i & T_j| / (max(|S_i|, 1) max(|T_j|, 1))`` for every pair.

        Intersection sizes are one membership product (exact: sums of
        ones); a full-domain set intersects any set in that set's size.
        """
        if other is self:
            counts = self.membership @ self.membership.T
            if self.any_full:
                counts[:, self.full] = self.sizes[:, None]
        else:
            counts = np.empty((len(self.keys), len(other.keys)), dtype=np.float64)
            values = self.values
            for slot, key in enumerate(other.keys):
                if key is None:
                    counts[:, slot] = self.sizes
                else:
                    columns = [values[v] for v in key if v in values]
                    counts[:, slot] = self.membership[:, columns].sum(axis=1)
        if self.any_full:
            counts[self.full, :] = other.sizes
        counts /= np.multiply.outer(self.divisors, other.divisors)
        return counts


def _slotted(known: dict, keys) -> tuple[dict, list[int], list]:
    """The slot of every key of ``keys`` in ``known`` grown by the unseen
    ones (``known`` itself when none is), and the unseen keys in order."""
    index = [known.get(key, -1) for key in keys]
    if -1 not in index:
        return known, index, []
    grown = dict(known)
    index, new = [], []
    for key in keys:
        slot = grown.get(key)
        if slot is None:
            slot = grown[key] = len(grown)
            new.append(key)
        index.append(slot)
    return grown, index, new


class _IndexBuffer:
    """The ``(attributes, capacity)`` slot array behind a chain of layouts.

    A layout is the leading ``size`` columns.  Appending to the newest
    layout writes the columns after it, which no older layout reads, so a
    prepared model's layout grows in O(k) as its factor does (compare
    :class:`repro.core.linalg.FactorBuffer`); any other append copies.
    Check and claim are one step under the caller's lock (the engine lock
    for every ask and extension).
    """

    __slots__ = ("array", "used")

    def __init__(self, array: np.ndarray, used: int):
        self.array = array
        self.used = used

    def claim(self, size: int, columns: int) -> bool:
        if self.used != size or size + columns > self.array.shape[1]:
            return False
        self.used = size + columns
        return True


class RegionLayout:
    """A region list as the kernel reads it.

    ``slots`` holds, per attribute in product order, the distinct
    constraints (:class:`_RangeSlots` / :class:`_SetSlots`) and ``index``
    (``attributes x size``, int64) the slot of every region.  It depends on
    the attribute domains only, not on the length scales.  Made by
    :meth:`SnippetCovariance.layout`; :meth:`appended` grows it.
    """

    __slots__ = ("size", "slots", "index", "_buffer")

    def __init__(self, slots: tuple, buffer: _IndexBuffer, size: int):
        self.size = size
        self.slots = slots
        self._buffer = buffer
        self.index = buffer.array[:, :size]

    def appended(self, other: "RegionLayout") -> "RegionLayout":
        """This list followed by ``other``'s, equal to laying both out at once.

        ``other``'s distinct constraints take their slots here in first-seen
        order; neither layout changes.
        """
        if other.size == 0:
            return self
        slots = []
        fresh = np.empty_like(other.index)
        for position, (mine, theirs) in enumerate(zip(self.slots, other.slots)):
            if theirs is mine:
                fresh[position] = other.index[position]
            else:
                mine, remap = mine.slotted(theirs.keys)
                fresh[position] = np.asarray(remap, dtype=np.int64)[other.index[position]]
            slots.append(mine)
        size, buffer = self.size, self._buffer
        if not buffer.claim(size, other.size):
            array = np.zeros((len(slots), 2 * (size + other.size)), dtype=np.int64)
            array[:, :size] = self.index
            buffer = _IndexBuffer(array, size + other.size)
        buffer.array[:, size : size + other.size] = fresh
        return RegionLayout(tuple(slots), buffer, size + other.size)


# ----------------------------------------------------------------- the kernel


class SnippetCovariance:
    """The covariance kernel of one model: normalised factors between regions.

    The factors returned are *unit-variance* correlations (the product over
    attributes of per-attribute factors in ``[0, 1]``); callers multiply by
    the calibrated signal variance ``sigma_g^2``.  Every factor method takes
    snippets, bare regions or their :class:`RegionLayout`; passing the
    layout of a list used repeatedly (a prepared model's past snippets)
    skips the per-region Python work.  See the module docstring for why the
    values do not depend on the form or on the batch.
    """

    def __init__(self, domains: AttributeDomains, model: AggregateModel):
        self.domains = domains
        self.model = model
        numeric = sorted(domains.numeric.items())
        categorical = sorted(domains.categorical.items())
        #: Attribute names in product order: sorted numeric, sorted categorical.
        self.attributes: tuple[str, ...] = tuple(name for name, _ in numeric + categorical)
        self.numeric_count = len(numeric)
        self._numeric_positions = {name: position for position, (name, _) in enumerate(numeric)}
        self._categorical_positions = {
            name: len(numeric) + position for position, (name, _) in enumerate(categorical)
        }
        self._numeric_domains = [domain for _, domain in numeric]
        full_ranges = [self._numeric_range(None, domain) for domain in self._numeric_domains]
        self._coefficients = se_coefficients(
            [model.length_scale(name, domains) for name, _ in numeric]
        )
        self._full_keys: list = full_ranges + [None] * len(categorical)
        self._empty_slots = [_RangeSlots.empty(full) for full in full_ranges] + [
            _SetSlots.empty(domain.size) for _, domain in categorical
        ]
        self._full_slots = [slots.slotted([key])[0] for slots, key in
                            zip(self._empty_slots, self._full_keys)]  # fmt: skip
        # The factor between two full-domain regions, per attribute.
        bounds = np.array(full_ranges, dtype=np.float64).reshape(-1, 2).T
        numeric_full = se_average_factors(*bounds, *bounds, self._coefficients)
        self._full_factors: list[float] = numeric_full.tolist() + [
            float(domain.size) / (float(max(domain.size, 1)) * float(max(domain.size, 1)))
            for _, domain in categorical
        ]

    # ------------------------------------------------------------------ public

    def layout(self, items: Sequence[Snippet] | Sequence[Region]) -> RegionLayout:
        """The layout of ``items`` (snippets or bare regions)."""
        regions = [item if isinstance(item, Region) else item.region for item in items]
        count = len(regions)
        columns: list[list | None] = [None] * len(self.attributes)
        numeric, categorical = self._numeric_positions, self._categorical_positions
        for row, region in enumerate(regions):
            for constraint in region.numeric_ranges:
                position = numeric.get(constraint.name)
                if position is not None:
                    column = columns[position] or self._column(columns, position, count)
                    column[row] = self._numeric_range(
                        constraint, self._numeric_domains[position]
                    )
            for constraint in region.categorical_constraints:
                position = categorical.get(constraint.name)
                if position is not None:
                    column = columns[position] or self._column(columns, position, count)
                    column[row] = constraint.values
        index = np.zeros((len(columns), count), dtype=np.int64)
        # No region, no slot: an empty list grows as if laid out from scratch.
        spanned = self._full_slots if count else self._empty_slots
        slots = []
        for position, column in enumerate(columns):
            if column is None:
                slots.append(spanned[position])
            else:
                grown, index[position] = self._empty_slots[position].slotted(column)
                slots.append(grown)
        return RegionLayout(tuple(slots), _IndexBuffer(index, count), count)

    def factor_matrix(
        self,
        rows: Sequence[Snippet] | Sequence[Region] | RegionLayout,
        cols: Sequence[Snippet] | Sequence[Region] | RegionLayout | None = None,
    ) -> np.ndarray:
        """Pairwise factor matrix between two region lists.

        When ``cols`` is omitted the matrix is the symmetric factor matrix of
        ``rows`` against itself, symmetrised exactly for the factorisation
        downstream.
        """
        symmetric = cols is None
        rows = self._laid_out(rows)
        cols = rows if symmetric else self._laid_out(cols)
        shape = (rows.size, cols.size)
        if 0 in shape:
            return np.ones(shape, dtype=np.float64)
        result = self.product(self.terms(rows, cols), shape)
        return linalg.symmetrize(result) if symmetric else result

    def terms(self, rows: RegionLayout, cols: RegionLayout) -> list[float | np.ndarray]:
        """Every attribute's factors between ``rows`` and ``cols``, in
        product order.

        An attribute both sides leave at its full domain is its scalar;
        any other is an array that broadcasts to the ``(n, m)`` block.
        Every numeric attribute's distinct pairs go through one
        :func:`~repro.core.kernel.se_average_factors` call.
        """
        terms: list[float | np.ndarray] = list(self._full_factors)
        numeric: list[int] = []
        firsts, seconds, sizes = [], [], []
        for position in range(len(self.attributes)):
            mine, theirs = rows.slots[position], cols.slots[position]
            if mine.spans and theirs.spans:
                continue
            if position < self.numeric_count:
                # Every (row slot, col slot) pair, row-major.
                first, second = mine.bounds, theirs.bounds
                r, c = first.shape[1], second.shape[1]
                if c > 1:
                    first = np.repeat(first, c, axis=1)
                if r > 1:
                    second = np.repeat(second[:, None, :], r, axis=1).reshape(2, r * c)
                numeric.append(position)
                firsts.append(first)
                seconds.append(second)
                sizes.append(first.shape[1])
            else:
                terms[position] = self._scatter(mine.factors(theirs), rows, cols, position)
        if numeric:
            first = np.concatenate(firsts, axis=1) if len(numeric) > 1 else firsts[0]
            second = np.concatenate(seconds, axis=1) if len(numeric) > 1 else seconds[0]
            coefficients = np.repeat(self._coefficients[:, numeric], sizes, axis=1)
            flat = se_average_factors(*first, *second, coefficients)
            offset = 0
            for position, size in zip(numeric, sizes):
                block = flat[offset : offset + size]
                terms[position] = self._scatter(block, rows, cols, position)
                offset += size
        return terms

    @staticmethod
    def product(terms: Sequence[float | np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
        """``((1 * t_1) * t_2) * ...`` element-wise, in ``terms`` order.

        Scalars before the first array fold into one float (exact: the
        product starts at one).  The running product keeps the smallest
        shape its terms broadcast to -- a group-by cross block multiplies
        the attributes its cells share as one column -- and widens only
        when a term does; each element still sees the same multiplications
        in the same order.
        """
        lead = 1.0
        result: np.ndarray | None = None
        for term in terms:
            if result is None:
                if isinstance(term, float):
                    lead *= term
                else:
                    result = term * lead
            elif isinstance(term, float) or term.shape == result.shape:
                result *= term
            else:
                result = result * term
        if result is None:
            return np.full(shape, lead, dtype=np.float64)
        if result.shape != shape:
            result = np.broadcast_to(result, shape).copy()
        return result

    # --------------------------------------------------------------- internals

    def _laid_out(self, items) -> RegionLayout:
        return items if isinstance(items, RegionLayout) else self.layout(items)

    def _column(self, columns: list, position: int, count: int) -> list:
        """A fresh column of ``count`` full-domain keys at ``position``."""
        columns[position] = [self._full_keys[position]] * count
        return columns[position]

    @staticmethod
    def _scatter(
        block: np.ndarray, rows: RegionLayout, cols: RegionLayout, position: int
    ) -> np.ndarray:
        """One attribute's distinct factors placed at every (row, col) pair:
        a ``take`` along each axis, and a side with one slot leaves a
        broadcast axis instead."""
        height, width = len(rows.slots[position].keys), len(cols.slots[position].keys)
        block = block.reshape(height, width)
        if height > 1:
            block = block.take(rows.index[position], axis=0)
        if width > 1:
            block = block.take(cols.index[position], axis=1)
        return block

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
