"""Column types, roles, and table schemas.

The paper (Section 3.1) distinguishes *dimension attributes* (can appear in
selection predicates and group-by clauses but not inside aggregate functions)
from *measure attributes* (numeric, can be aggregated).  Dimension attributes
may be numeric or categorical.  The schema objects here record both the
physical kind of a column and its role so the Verdict engine can build the
attribute domains it needs for covariance computation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import SchemaError


class ColumnKind(enum.Enum):
    """Physical type of a column."""

    FLOAT = "float"
    INT = "int"
    CATEGORY = "category"

    @property
    def is_numeric(self) -> bool:
        return self in (ColumnKind.FLOAT, ColumnKind.INT)


class ColumnRole(enum.Enum):
    """Semantic role of a column in the star-schema sense of the paper."""

    DIMENSION = "dimension"
    MEASURE = "measure"
    KEY = "key"


@dataclass(frozen=True)
class Column:
    """A single column description.

    Parameters
    ----------
    name:
        Column name, unique within a schema.
    kind:
        Physical type.
    role:
        Dimension / measure / key role.  Measures must be numeric.
    """

    name: str
    kind: ColumnKind
    role: ColumnRole = ColumnRole.DIMENSION

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.role is ColumnRole.MEASURE and not self.kind.is_numeric:
            raise SchemaError(
                f"measure column {self.name!r} must be numeric, got {self.kind}"
            )

    @property
    def is_numeric(self) -> bool:
        return self.kind.is_numeric

    @property
    def is_categorical(self) -> bool:
        return self.kind is ColumnKind.CATEGORY


@dataclass(frozen=True)
class Schema:
    """An ordered collection of uniquely-named columns."""

    columns: tuple[Column, ...]
    _by_name: dict[str, Column] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in by_name:
                raise SchemaError(f"duplicate column name {column.name!r}")
            by_name[column.name] = column
        object.__setattr__(self, "_by_name", by_name)

    @classmethod
    def of(cls, columns: Iterable[Column]) -> "Schema":
        """Build a schema from any iterable of columns."""
        return cls(tuple(columns))

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        """Return the column named ``name``, raising ``SchemaError`` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def names(self) -> list[str]:
        """Column names in schema order."""
        return [column.name for column in self.columns]

    def dimension_columns(self) -> list[Column]:
        """Columns with the DIMENSION role."""
        return [c for c in self.columns if c.role is ColumnRole.DIMENSION]

    def key_columns(self) -> list[Column]:
        """Columns with the KEY role."""
        return [c for c in self.columns if c.role is ColumnRole.KEY]

    def merged_with(self, other: "Schema", prefer_self: bool = True) -> "Schema":
        """Merge two schemas, keeping the first occurrence of duplicate names.

        Used when denormalising a fact table with its dimension tables: join
        keys appear on both sides and must not be duplicated.
        """
        merged: list[Column] = list(self.columns)
        seen = {c.name for c in self.columns}
        for column in other.columns:
            if column.name in seen:
                if not prefer_self:
                    merged = [column if c.name == column.name else c for c in merged]
                continue
            merged.append(column)
            seen.add(column.name)
        return Schema(tuple(merged))


def numeric_dimension(name: str, kind: ColumnKind = ColumnKind.FLOAT) -> Column:
    """Convenience constructor for a numeric dimension column."""
    if not kind.is_numeric:
        raise SchemaError("numeric_dimension requires a numeric kind")
    return Column(name, kind, ColumnRole.DIMENSION)


def categorical_dimension(name: str) -> Column:
    """Convenience constructor for a categorical dimension column."""
    return Column(name, ColumnKind.CATEGORY, ColumnRole.DIMENSION)


def measure(name: str, kind: ColumnKind = ColumnKind.FLOAT) -> Column:
    """Convenience constructor for a measure column."""
    return Column(name, kind, ColumnRole.MEASURE)


def key(name: str) -> Column:
    """Convenience constructor for a key column."""
    return Column(name, ColumnKind.INT, ColumnRole.KEY)
