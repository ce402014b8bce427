"""NumPy-backed columnar tables.

A :class:`Table` stores each column as a NumPy array.  Numeric columns use
float64 / int64 arrays.  A categorical column is stored once, dictionary
encoded: an int64 code array aligned with the rows plus an immutable
:class:`Dictionary` of its distinct values in first-seen order.  Derived
tables share the dictionary: ``take`` / ``filter`` / ``head`` gather the
codes, ``slice_rows`` slices them without a copy, and ``append`` keeps the
prefix codes verbatim and extends the dictionary, so a code never changes
once assigned.  Predicates, zone maps and group-by read the codes
(:mod:`repro.db.expressions`, :mod:`repro.db.partition`,
:mod:`repro.db.groupby`); :meth:`Table.column` decodes them to values on
every call.  Tables also support column projection, vertical append (for
the data-append experiments of Appendix D) and cheap row-count queries.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.db.schema import Column, ColumnKind, Schema
from repro.errors import TableError


class Dictionary:
    """The distinct values of one categorical column, in first-seen order.

    ``values[code]`` is the value assigned ``code`` and ``index`` maps a
    value back to its code; values that compare equal share one code, so
    the first-seen one stands for them all.  A dictionary is never mutated
    once built, so any number of tables share it.  ``matches`` memoises
    per-value predicate masks (:func:`repro.db.expressions.distinct_match_mask`),
    which depend on the values alone.
    """

    __slots__ = ("values", "index", "matches")

    def __init__(self, index: dict):
        self.index = index
        self.values = np.empty(len(index), dtype=object)
        for code, value in enumerate(index):
            self.values[code] = value
        self.matches: dict = {}

    def __len__(self) -> int:
        return len(self.values)

    def extended(self, other: "Dictionary", codes: np.ndarray) -> tuple["Dictionary", np.ndarray]:
        """This dictionary grown by ``other``'s values, and ``codes`` renumbered into it.

        Existing codes keep their values; values new to this dictionary get
        the next codes in ``other``'s order.
        """
        if other is self:
            return self, codes
        index = dict(self.index)
        renumber = np.fromiter(
            (index.setdefault(value, len(index)) for value in other.values.tolist()),
            dtype=np.int64,
            count=len(other),
        )
        grown = self if len(index) == len(self.index) else Dictionary(index)
        return grown, renumber[codes]


def _encode(table: str, column: str, values: np.ndarray) -> tuple[np.ndarray, Dictionary]:
    """First-seen codes of ``values`` and their dictionary, in one dict pass."""
    index: dict = {}
    setdefault = index.setdefault
    try:
        codes = np.fromiter(
            (setdefault(value, len(index)) for value in values.tolist()),
            dtype=np.int64,
            count=len(values),
        )
    except TypeError as error:
        raise TableError(
            f"table {table!r}: categorical column {column!r} holds a value "
            f"that cannot be a category ({error})"
        ) from None
    return codes, Dictionary(index)


def _coerce_column(
    table: str, column: Column, values: Sequence
) -> tuple[np.ndarray, Dictionary | None]:
    """The stored array of ``column`` (codes if categorical) and its dictionary."""
    if column.kind is ColumnKind.FLOAT:
        array = np.asarray(values, dtype=np.float64)
    elif column.kind is ColumnKind.INT:
        array = np.asarray(values, dtype=np.int64)
    else:
        array = np.asarray(values, dtype=object)
    if array.ndim != 1:
        raise TableError(
            f"table {table!r}: column {column.name!r} must be one-dimensional"
        )
    if column.kind is ColumnKind.CATEGORY:
        return _encode(table, column.name, array)
    return array, None


class Table:
    """A columnar table with a fixed schema.

    Parameters
    ----------
    name:
        Table name (used by the catalog and in SQL).
    schema:
        The table schema.
    columns:
        Mapping from column name to a sequence of values.  Every column in the
        schema must be present and all columns must have equal length.
    """

    def __init__(self, name: str, schema: Schema, columns: Mapping[str, Sequence]):
        data: dict[str, np.ndarray] = {}
        dictionaries: dict[str, Dictionary] = {}
        length: int | None = None
        for column in schema:
            if column.name not in columns:
                raise TableError(f"table {name!r}: missing column {column.name!r}")
            array, dictionary = _coerce_column(name, column, columns[column.name])
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise TableError(
                    f"table {name!r}: column {column.name!r} has length {len(array)}, "
                    f"expected {length}"
                )
            data[column.name] = array
            if dictionary is not None:
                dictionaries[column.name] = dictionary
        extra = set(columns) - set(schema.names())
        if extra:
            raise TableError(f"table {name!r}: unexpected columns {sorted(extra)}")
        self.name = name
        self.schema = schema
        self._data = data
        # Shared between derived tables: never mutated once assigned.
        self._dictionaries = dictionaries
        self._length = length or 0

    def _derived(
        self,
        data: dict[str, np.ndarray],
        length: int,
        schema: Schema | None = None,
        dictionaries: dict[str, Dictionary] | None = None,
        name: str | None = None,
    ) -> "Table":
        """A table over already-stored arrays (codes for categorical columns)."""
        table = Table.__new__(Table)
        table.name = self.name if name is None else name
        table.schema = self.schema if schema is None else schema
        table._data = data
        table._dictionaries = self._dictionaries if dictionaries is None else dictionaries
        table._length = length
        return table

    # ------------------------------------------------------------------ basics

    def __len__(self) -> int:
        return self._length

    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return self._length

    @property
    def num_columns(self) -> int:
        """Number of columns in the table."""
        return len(self.schema)

    def column(self, name: str) -> np.ndarray:
        """The values of column ``name``.

        A numeric column returns its backing array (not a copy); a
        categorical column is decoded from its codes on every call.
        """
        self.schema.column(name)
        dictionary = self._dictionaries.get(name)
        if dictionary is None:
            return self._data[name]
        return dictionary.values[self._data[name]]

    def column_at(self, name: str, rows: np.ndarray) -> np.ndarray:
        """``column(name)[rows]``, decoding only those rows."""
        self.schema.column(name)
        dictionary = self._dictionaries.get(name)
        if dictionary is None:
            return self._data[name][rows]
        return dictionary.values[self._data[name][rows]]

    def codes(self, name: str) -> np.ndarray:
        """The int64 dictionary codes of categorical column ``name``."""
        self.dictionary(name)
        return self._data[name]

    def dictionary(self, name: str) -> Dictionary:
        """The dictionary of categorical column ``name``."""
        if not self.schema.column(name).is_categorical:
            raise TableError(f"column {name!r} of table {self.name!r} is not categorical")
        return self._dictionaries[name]

    def column_names(self) -> list[str]:
        """Column names in schema order."""
        return self.schema.names()

    def has_column(self, name: str) -> bool:
        return name in self.schema

    # -------------------------------------------------------------- row access

    def row(self, index: int) -> dict[str, object]:
        """Return a single row as a dict (for debugging and small tables)."""
        if not 0 <= index < self._length:
            raise TableError(f"row index {index} out of range [0, {self._length})")
        return {name: self.column_at(name, index) for name in self.schema.names()}

    def rows(self) -> Iterable[dict[str, object]]:
        """Iterate over rows as dicts.  Intended for small tables / tests."""
        for i in range(self._length):
            yield self.row(i)

    # ----------------------------------------------------------- table algebra

    def filter(self, mask: np.ndarray) -> "Table":
        """Return a new table containing only rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._length:
            raise TableError(
                f"mask length {len(mask)} does not match table length {self._length}"
            )
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray) -> "Table":
        """Return a new table containing the rows at ``indices`` (in order)."""
        indices = np.asarray(indices, dtype=np.int64)
        data = {name: array[indices] for name, array in self._data.items()}
        return self._derived(data, len(indices))

    def head(self, count: int) -> "Table":
        """Return a new table containing the first ``count`` rows."""
        if count < 0:
            raise TableError("head count must be non-negative")
        return self.take(np.arange(min(count, self._length)))

    def slice_rows(self, start: int, stop: int) -> "Table":
        """Return a zero-copy view of the contiguous row range ``[start, stop)``.

        Column arrays (codes included) are NumPy slices of this table's
        arrays, so per-partition morsels and per-batch sample prefixes cost
        no copy and no encoding.
        """
        start = max(0, min(int(start), self._length))
        stop = max(start, min(int(stop), self._length))
        data = {name: array[start:stop] for name, array in self._data.items()}
        return self._derived(data, stop - start)

    def select(self, names: Sequence[str]) -> "Table":
        """Return a new table containing only the named columns, in order."""
        schema = Schema(tuple(self.schema.column(name) for name in names))
        dictionaries = {n: self._dictionaries[n] for n in names if n in self._dictionaries}
        data = {name: self._data[name] for name in names}
        return self._derived(data, self._length, schema, dictionaries)

    def hstack(self, other: "Table") -> "Table":
        """This table with ``other``'s columns after its own (same row count)."""
        if len(other) != self._length:
            raise TableError(
                f"cannot place {len(other)} rows beside {self._length}"
            )
        return self._derived(
            {**self._data, **other._data},
            self._length,
            Schema(self.schema.columns + other.schema.columns),
            {**self._dictionaries, **other._dictionaries},
        )

    def with_column(self, column: Column, values: Sequence) -> "Table":
        """Return a new table with ``column`` appended (or replaced)."""
        array, dictionary = _coerce_column(self.name, column, values)
        if len(array) != self._length:
            raise TableError(
                f"new column {column.name!r} has length {len(array)}, "
                f"expected {self._length}"
            )
        if column.name in self.schema:
            new_columns = tuple(
                column if c.name == column.name else c for c in self.schema
            )
        else:
            new_columns = self.schema.columns + (column,)
        dictionaries = {n: d for n, d in self._dictionaries.items() if n != column.name}
        if dictionary is not None:
            dictionaries[column.name] = dictionary
        data = {**self._data, column.name: array}
        return self._derived(data, self._length, Schema(new_columns), dictionaries)

    def renamed(self, name: str) -> "Table":
        """Return the same table under a different name (no copy of data)."""
        return self._derived(self._data, self._length, name=name)

    def append(self, other: "Table") -> "Table":
        """Return a new table with ``other``'s rows appended.

        The schemas must have identical column names and kinds.  This is the
        primitive behind the data-append experiments (Appendix D).  The
        prefix rows keep their codes, so the partition layer reuses the
        prefix zone maps (:func:`repro.db.partition.note_append`).
        """
        if self.schema.names() != other.schema.names():
            raise TableError(
                "cannot append tables with different column sets: "
                f"{self.schema.names()} vs {other.schema.names()}"
            )
        for column in self.schema:
            other_column = other.schema.column(column.name)
            if other_column.kind is not column.kind:
                raise TableError(
                    f"column {column.name!r} has kind {column.kind} here but "
                    f"{other_column.kind} in the appended table"
                )
        data: dict[str, np.ndarray] = {}
        dictionaries: dict[str, Dictionary] = {}
        for name, array in self._data.items():
            tail = other._data[name]
            dictionary = self._dictionaries.get(name)
            if dictionary is not None:
                dictionary, tail = dictionary.extended(other._dictionaries[name], tail)
                dictionaries[name] = dictionary
            data[name] = np.concatenate([array, tail])
        appended = self._derived(data, self._length + len(other), dictionaries=dictionaries)
        from repro.db.partition import note_append

        note_append(self, appended)
        return appended

    # ------------------------------------------------------------- conversions

    @classmethod
    def from_rows(
        cls, name: str, schema: Schema, rows: Iterable[Mapping[str, object]]
    ) -> "Table":
        """Build a table from an iterable of row dicts."""
        names = schema.names()
        buffers: dict[str, list] = {n: [] for n in names}
        for row in rows:
            for n in names:
                if n not in row:
                    raise TableError(f"row missing column {n!r}")
                buffers[n].append(row[n])
        return cls(name, schema, buffers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={self._length}, cols={self.num_columns})"
