"""Predicate regions over attribute domains.

A query snippet's selection predicates define a region ``F_i`` of the
dimension-attribute space (Section 4.1): the product of one range per numeric
attribute and one value set per categorical attribute.  Verdict represents
``F_i`` as the product of per-attribute ranges -- exactly what this module
implements.  Attribute *domains* carry the information needed to default
unconstrained attributes to their full range (Section 4.1: "we set the range
to (min(A_k), max(A_k)) if no constraint is specified") and to give equality
predicates on numeric attributes a small positive width (the attribute's
resolution) so that FREQ covariances do not collapse to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from repro.db.schema import ColumnRole
from repro.db.table import Table
from repro.errors import ReproError
from repro.sqlparser import ast

Value = Union[int, float, str]


@dataclass(frozen=True)
class NumericDomain:
    """Domain metadata of one numeric attribute."""

    name: str
    low: float
    high: float
    resolution: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ReproError(f"numeric domain {self.name!r} has high < low")
        if self.resolution <= 0:
            raise ReproError(f"numeric domain {self.name!r} needs a positive resolution")

    @property
    def width(self) -> float:
        return max(self.high - self.low, self.resolution)


@dataclass(frozen=True)
class CategoricalDomain:
    """Domain metadata of one categorical attribute."""

    name: str
    size: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ReproError(f"categorical domain {self.name!r} must have size >= 1")


@dataclass(frozen=True)
class NumericRange:
    """A (closed) range constraint on a numeric attribute."""

    name: str
    low: float
    high: float

    @property
    def width(self) -> float:
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.low + self.high)

    def to_state(self) -> dict:
        """JSON-safe state (exact: floats round-trip bit-for-bit)."""
        return {"name": self.name, "low": self.low, "high": self.high}

    @classmethod
    def from_state(cls, state: dict) -> "NumericRange":
        return cls(name=state["name"], low=state["low"], high=state["high"])


@dataclass(frozen=True)
class CategoricalConstraint:
    """A value-set constraint on a categorical attribute.

    ``values`` is ``None`` when the attribute is unconstrained (the full
    domain); otherwise it is the set of admitted values.
    """

    name: str
    values: frozenset[Value] | None
    domain_size: int

    @property
    def size(self) -> int:
        if self.values is None:
            return self.domain_size
        return len(self.values)

    def intersection_size(self, other: "CategoricalConstraint") -> int:
        """|F_i,k  intersect  F_j,k| (Appendix F.2)."""
        if self.values is None and other.values is None:
            return self.domain_size
        if self.values is None:
            return len(other.values or frozenset())
        if other.values is None:
            return len(self.values)
        return len(self.values & other.values)

    def to_state(self) -> dict:
        """JSON-safe state; ``values`` keeps a deterministic order."""
        from repro.core.serialize import encode_values

        return {
            "name": self.name,
            "values": None if self.values is None else encode_values(self.values),
            "domain_size": self.domain_size,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CategoricalConstraint":
        values = state["values"]
        return cls(
            name=state["name"],
            values=None if values is None else frozenset(values),
            domain_size=state["domain_size"],
        )


class AttributeDomains:
    """Domains of every attribute Verdict may see in selection predicates."""

    def __init__(
        self,
        numeric: Mapping[str, NumericDomain] | None = None,
        categorical: Mapping[str, CategoricalDomain] | None = None,
    ):
        self.numeric: dict[str, NumericDomain] = dict(numeric or {})
        self.categorical: dict[str, CategoricalDomain] = dict(categorical or {})

    # ----------------------------------------------------------- construction

    @classmethod
    def from_table(
        cls,
        table: Table,
        include_roles: Iterable[ColumnRole] = (ColumnRole.DIMENSION, ColumnRole.MEASURE),
        max_resolution_distinct: int = 2_000,
    ) -> "AttributeDomains":
        """Derive domains from a (denormalised) table.

        Numeric attributes get ``[min, max]`` bounds and a resolution equal to
        the domain width divided by the number of distinct values (capped at
        ``max_resolution_distinct``); categorical attributes get their number
        of distinct values.  Key columns are never included.

        Numeric min/max bounds and categorical distinct counts come from the
        partition layer's zone maps (:mod:`repro.db.partition`), which
        appends extend incrementally.
        The numeric *distinct count* feeding the resolution is still an
        ``np.unique`` pass over the column (its exact value has no
        partition-level summary), so a domain rebuild is cheaper after this
        change but not O(appended rows).
        """
        from repro.db import partition

        roles = set(include_roles)
        numeric: dict[str, NumericDomain] = {}
        categorical: dict[str, CategoricalDomain] = {}
        for column in table.schema:
            if column.role not in roles or len(table) == 0:
                continue
            if column.is_categorical:
                distinct = partition.distinct_count(table, column.name)
                categorical[column.name] = CategoricalDomain(column.name, max(distinct, 1))
            else:
                numeric_values = np.asarray(table.column(column.name), dtype=np.float64)
                bounds = None
                if not partition.numeric_has_nan(table, column.name):
                    bounds = partition.numeric_bounds(table, column.name)
                if bounds is not None:
                    low, high = bounds
                else:
                    # NaN-bearing columns keep the historical NaN-propagating
                    # min/max (zone maps are NaN-ignoring by design).
                    low = float(numeric_values.min())
                    high = float(numeric_values.max())
                distinct = min(len(np.unique(numeric_values)), max_resolution_distinct)
                if high > low and distinct > 1:
                    resolution = (high - low) / (distinct - 1)
                else:
                    resolution = max(abs(high), 1.0) * 1e-3 if high == low else (high - low)
                    resolution = max(resolution, 1e-9)
                numeric[column.name] = NumericDomain(column.name, low, high, resolution)
        return cls(numeric=numeric, categorical=categorical)

    # ---------------------------------------------------------------- queries

    def has_attribute(self, name: str) -> bool:
        return name in self.numeric or name in self.categorical

    def is_numeric(self, name: str) -> bool:
        return name in self.numeric

    def is_categorical(self, name: str) -> bool:
        return name in self.categorical

    def numeric_names(self) -> list[str]:
        return sorted(self.numeric)

    def categorical_names(self) -> list[str]:
        return sorted(self.categorical)

    def default_length_scales(self) -> dict[str, float]:
        """The paper's optimisation starting point: the attribute domain width."""
        return {name: domain.width for name, domain in self.numeric.items()}

    def merged_with(self, other: "AttributeDomains") -> "AttributeDomains":
        """Union of two domain sets (first one wins on conflicts)."""
        numeric = dict(other.numeric)
        numeric.update(self.numeric)
        categorical = dict(other.categorical)
        categorical.update(self.categorical)
        return AttributeDomains(numeric=numeric, categorical=categorical)


@dataclass(frozen=True)
class Region:
    """The predicate region ``F_i`` of one snippet.

    Only *constrained* attributes are stored explicitly; unconstrained
    attributes implicitly span their whole domain, and the covariance
    computation treats them consistently for every snippet (their contribution
    to relative covariances cancels, see :mod:`repro.core.covariance`).

    ``residual`` captures predicate fragments that cannot be represented as
    per-attribute constraints (e.g. comparisons over derived expressions).
    Two snippets are only comparable when their residuals agree, so the
    residual is folded into the snippet key, never into the covariance.
    """

    numeric_ranges: tuple[NumericRange, ...] = ()
    categorical_constraints: tuple[CategoricalConstraint, ...] = ()
    residual: frozenset[str] = frozenset()

    def numeric_by_name(self) -> dict[str, NumericRange]:
        return {r.name: r for r in self.numeric_ranges}

    def categorical_by_name(self) -> dict[str, CategoricalConstraint]:
        return {c.name: c for c in self.categorical_constraints}

    def constrained_attributes(self) -> set[str]:
        return {r.name for r in self.numeric_ranges} | {
            c.name for c in self.categorical_constraints
        }

    def to_state(self) -> dict:
        """JSON-safe state used by the persistent synopsis store."""
        return {
            "numeric_ranges": [r.to_state() for r in self.numeric_ranges],
            "categorical_constraints": [
                c.to_state() for c in self.categorical_constraints
            ],
            "residual": sorted(self.residual),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Region":
        return cls(
            numeric_ranges=tuple(
                NumericRange.from_state(r) for r in state["numeric_ranges"]
            ),
            categorical_constraints=tuple(
                CategoricalConstraint.from_state(c)
                for c in state["categorical_constraints"]
            ),
            residual=frozenset(state["residual"]),
        )

    def volume(self, domains: AttributeDomains) -> float:
        """Volume of the region over *constrained* attributes only.

        Used to turn FREQ answers into densities (Appendix F.3).  The volume
        over unconstrained attributes is a constant shared by every snippet of
        the same table, so omitting it changes the density prior by a constant
        factor that cancels in the prior-mean computation.
        """
        volume = 1.0
        for numeric_range in self.numeric_ranges:
            domain = domains.numeric.get(numeric_range.name)
            width = numeric_range.width
            if domain is not None:
                width = max(width, domain.resolution)
            volume *= max(width, 1e-12)
        for constraint in self.categorical_constraints:
            volume *= max(constraint.size, 1)
        return volume

    def volume_fraction(self, domains: AttributeDomains) -> float:
        """Fraction of the full attribute space covered by this region.

        The product, over *every* domain attribute, of the constrained width
        divided by the domain width (numeric) or of the constrained value
        count divided by the domain size (categorical); unconstrained
        attributes contribute a factor of one.  The result lies in (0, 1] and
        is the normaliser that turns a FREQ(*) answer (a fraction of tuples)
        into a density comparable across snippets with different predicate
        regions (Appendix F.3).
        """
        fraction = 1.0
        for numeric_range in self.numeric_ranges:
            domain = domains.numeric.get(numeric_range.name)
            if domain is None:
                continue
            width = max(numeric_range.width, domain.resolution)
            fraction *= min(max(width / domain.width, 1e-12), 1.0)
        for constraint in self.categorical_constraints:
            domain = domains.categorical.get(constraint.name)
            size = constraint.size if constraint.values is not None else (
                domain.size if domain is not None else constraint.domain_size
            )
            domain_size = domain.size if domain is not None else constraint.domain_size
            fraction *= min(max(size / max(domain_size, 1), 1e-12), 1.0)
        return fraction


class RegionBuilder:
    """Builds :class:`Region` objects from conjunctive snippet predicates."""

    def __init__(self, domains: AttributeDomains):
        self.domains = domains

    def build(self, predicate: ast.Predicate | None) -> Region:
        """Convert a conjunctive predicate into a region.

        Unsupported predicate fragments (disjunctions, negations, LIKE, and
        comparisons over derived expressions) are collected into the region's
        ``residual`` signature rather than silently dropped.
        """
        numeric_low: dict[str, float] = {}
        numeric_high: dict[str, float] = {}
        categorical_sets: dict[str, frozenset[Value]] = {}
        residual: set[str] = set()

        for node in self._conjuncts(predicate, residual):
            self._apply(node, numeric_low, numeric_high, categorical_sets, residual)

        numeric_ranges: list[NumericRange] = []
        for name in sorted(set(numeric_low) | set(numeric_high)):
            domain = self.domains.numeric.get(name)
            if domain is None:
                residual.add(f"numeric:{name}")
                continue
            low = numeric_low.get(name, domain.low)
            high = numeric_high.get(name, domain.high)
            if high < low:
                # Contradictory constraints: keep an empty-ish sliver at the
                # boundary so the covariance stays well defined.
                low, high = high, high
            if high - low < domain.resolution:
                center = 0.5 * (low + high)
                low = center - 0.5 * domain.resolution
                high = center + 0.5 * domain.resolution
            numeric_ranges.append(NumericRange(name=name, low=low, high=high))

        categorical_constraints: list[CategoricalConstraint] = []
        for name in sorted(categorical_sets):
            domain = self.domains.categorical.get(name)
            if domain is None:
                residual.add(f"categorical:{name}")
                continue
            categorical_constraints.append(
                CategoricalConstraint(
                    name=name, values=categorical_sets[name], domain_size=domain.size
                )
            )

        return Region(
            numeric_ranges=tuple(numeric_ranges),
            categorical_constraints=tuple(categorical_constraints),
            residual=frozenset(residual),
        )

    # ----------------------------------------------------------------- helpers

    def _conjuncts(self, predicate: ast.Predicate | None, residual: set[str]):
        """Flatten a conjunctive predicate; route anything else to residual."""
        if predicate is None:
            return []
        if isinstance(predicate, ast.And):
            flattened: list[ast.Predicate] = []
            for child in predicate.predicates:
                flattened.extend(self._conjuncts(child, residual))
            return flattened
        if isinstance(predicate, (ast.Or, ast.Not, ast.LikePredicate)):
            residual.add(_signature(predicate))
            return []
        return [predicate]

    def _apply(
        self,
        node: ast.Predicate,
        numeric_low: dict[str, float],
        numeric_high: dict[str, float],
        categorical_sets: dict[str, frozenset[Value]],
        residual: set[str],
    ) -> None:
        if isinstance(node, ast.Comparison):
            self._apply_comparison(node, numeric_low, numeric_high, categorical_sets, residual)
        elif isinstance(node, ast.BetweenPredicate):
            name = node.column.name
            if self.domains.is_numeric(name):
                _tighten_low(numeric_low, name, float(node.low))
                _tighten_high(numeric_high, name, float(node.high))
            else:
                residual.add(_signature(node))
        elif isinstance(node, ast.InPredicate):
            name = node.column.name
            if node.negated or not node.values:
                residual.add(_signature(node))
            elif self.domains.is_categorical(name):
                values = frozenset(node.values)
                existing = categorical_sets.get(name)
                categorical_sets[name] = values if existing is None else existing & values
            elif self.domains.is_numeric(name):
                numeric_values = [float(v) for v in node.values if isinstance(v, (int, float))]
                if numeric_values:
                    _tighten_low(numeric_low, name, min(numeric_values))
                    _tighten_high(numeric_high, name, max(numeric_values))
                else:
                    residual.add(_signature(node))
            else:
                residual.add(_signature(node))
        else:
            residual.add(_signature(node))

    def _apply_comparison(
        self,
        node: ast.Comparison,
        numeric_low: dict[str, float],
        numeric_high: dict[str, float],
        categorical_sets: dict[str, frozenset[Value]],
        residual: set[str],
    ) -> None:
        left, op, right = node.left, node.op, node.right
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            left, right = right, left
            op = {
                ast.ComparisonOp.LT: ast.ComparisonOp.GT,
                ast.ComparisonOp.LE: ast.ComparisonOp.GE,
                ast.ComparisonOp.GT: ast.ComparisonOp.LT,
                ast.ComparisonOp.GE: ast.ComparisonOp.LE,
            }.get(op, op)
        if not isinstance(left, ast.ColumnRef) or not isinstance(right, ast.Literal):
            residual.add(_signature(node))
            return
        name = left.name
        value = right.value
        if self.domains.is_numeric(name) and isinstance(value, (int, float)):
            numeric_value = float(value)
            if op is ast.ComparisonOp.EQ:
                _tighten_low(numeric_low, name, numeric_value)
                _tighten_high(numeric_high, name, numeric_value)
            elif op in (ast.ComparisonOp.GT, ast.ComparisonOp.GE):
                _tighten_low(numeric_low, name, numeric_value)
            elif op in (ast.ComparisonOp.LT, ast.ComparisonOp.LE):
                _tighten_high(numeric_high, name, numeric_value)
            else:  # inequality (<>) cannot be represented as a range
                residual.add(_signature(node))
        elif self.domains.is_categorical(name):
            if op is ast.ComparisonOp.EQ:
                values = frozenset({value})
                existing = categorical_sets.get(name)
                categorical_sets[name] = values if existing is None else existing & values
            else:
                residual.add(_signature(node))
        else:
            residual.add(_signature(node))


def _tighten_low(lows: dict[str, float], name: str, value: float) -> None:
    lows[name] = max(lows.get(name, -math.inf), value)


def _tighten_high(highs: dict[str, float], name: str, value: float) -> None:
    highs[name] = min(highs.get(name, math.inf), value)


def _signature(node: ast.Predicate) -> str:
    """A stable textual signature for predicate fragments stored as residual."""
    return repr(node)
