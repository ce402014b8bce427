"""Database catalog: named tables, fact/dimension roles, FK denormalisation.

Data warehouses record measurements in *fact* tables and normalise common
attributes into *dimension* tables (Section 2.2, footnote 2).  Verdict
supports foreign-key joins between one fact table and any number of dimension
tables, and the paper's discussion is phrased over the denormalised table.
The catalog keeps that metadata and provides denormalisation: joining a fact
table with dimension tables along declared foreign keys to produce the wide
table every other component operates on.

Joins are matched with NumPy (sorted-unique + searchsorted) instead of a
per-row Python dict probe, and the catalog carries a bounded
*denormalization cache*: joined results are memoised under a key combining
the base-table identity (catalog table name + version, or an engine-supplied
token such as a sample prefix), the join clauses, and the versions of every
dimension table involved.  ``replace_table`` bumps the table's version and
drops every cached entry, so the data-append path (Appendix D) can never
observe a stale join.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from repro.db.table import Table
from repro.errors import CatalogError
from repro.sqlparser import ast


@dataclass(frozen=True)
class ForeignKey:
    """A declared foreign key from ``fact_table.fact_column`` to
    ``dimension_table.dimension_column``."""

    fact_table: str
    fact_column: str
    dimension_table: str
    dimension_column: str


def match_foreign_keys(left_keys: np.ndarray, right_keys: np.ndarray) -> np.ndarray:
    """For each left key, the row index of its first match in ``right_keys``.

    Returns an int64 array aligned with ``left_keys``; ``-1`` marks keys with
    no match.  Numeric keys are matched by sorted-unique + ``searchsorted``;
    object-dtype keys fall back to a hash probe.
    """
    if len(right_keys) == 0:
        return np.full(len(left_keys), -1, dtype=np.int64)
    if left_keys.dtype != object and right_keys.dtype != object:
        uniques, first_rows = np.unique(right_keys, return_index=True)
        positions = np.searchsorted(uniques, left_keys)
        positions = np.minimum(positions, len(uniques) - 1)
        matched = uniques[positions] == left_keys
        return np.where(matched, first_rows[positions], -1).astype(np.int64)
    index: dict[object, int] = {}
    for row_index, key in enumerate(right_keys):
        if key not in index:
            index[key] = row_index
    return np.asarray([index.get(key, -1) for key in left_keys], dtype=np.int64)


class JoinCache:
    """Bounded memo of joined tables keyed by arbitrary hashable keys.

    Keys embed the identity *and version* of every input (see
    :meth:`Catalog.denormalize` and the AQP engines' prefix tokens), so a
    stale entry can only be reached through a stale key; eviction is LRU, so
    hot entries (e.g. ground-truth denormalizations hit on every query)
    survive bursts of one-off prefix joins.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Table] = OrderedDict()
        # The serving layer hits this cache from concurrent reader threads;
        # LRU bookkeeping mutates the OrderedDict even on reads, so every
        # operation takes this (uncontended-cheap) lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Table | None:
        with self._lock:
            table = self._entries.get(key)
            if table is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return table

    def put(self, key: Hashable, table: Table) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = table
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def entries_for_token(self, cache_token: Hashable) -> list[tuple[Hashable, Table]]:
        """Entries whose key's base-table token equals ``cache_token``.

        Keys are ``(cache_token, joins, dimension_versions)`` tuples (see
        :class:`Catalog`); the data-append path uses this to find the cached
        denormalizations of a table's *previous* contents so it can extend
        them with the delta join instead of recomputing from scratch.
        """
        with self._lock:
            return [
                (key, table)
                for key, table in self._entries.items()
                if isinstance(key, tuple) and len(key) == 3 and key[0] == cache_token
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Catalog:
    """A collection of named tables with star-schema metadata."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._fact_tables: set[str] = set()
        self._foreign_keys: list[ForeignKey] = []
        self._versions: dict[str, int] = {}
        self._catalog_version = 0
        self.join_cache = JoinCache()

    # ----------------------------------------------------------------- tables

    def add_table(self, table: Table, fact: bool = False) -> None:
        """Register a table.  ``fact=True`` marks it as a fact table."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        self._versions[table.name] = 0
        self._catalog_version += 1
        if fact:
            self._fact_tables.add(table.name)

    def replace_table(self, table: Table) -> None:
        """Replace an existing table's contents with *arbitrary* new contents.

        Bumps the table's version and invalidates the denormalization cache:
        any cached join involving the old contents becomes unreachable.  For
        appends, prefer :meth:`append_rows`, which keeps (and extends) the
        cached denormalizations instead of dropping them.
        """
        if table.name not in self._tables:
            raise CatalogError(f"table {table.name!r} does not exist")
        self._tables[table.name] = table
        self._versions[table.name] += 1
        self._catalog_version += 1
        self.join_cache.clear()

    def append_rows(self, name: str, delta: Table) -> Table:
        """Append ``delta``'s rows to table ``name`` (the data-append path).

        Unlike :meth:`replace_table` this does *not* invalidate the
        denormalization cache.  An append only adds rows, so every cached
        denormalization of the old contents is still a correct prefix: the
        delta rows are joined on their own (O(delta), the foreign-key join is
        row-wise and order-preserving) and appended to the cached table,
        which is then stored under the new table version.  The appended
        table keeps its prefix codes and extends its dictionaries
        (:meth:`Table.append`), and its partition zone maps are extended
        rather than rebuilt (append lineage, see :mod:`repro.db.partition`)
        -- appends only add new partitions.

        Returns the updated (appended) table now registered in the catalog.
        """
        old = self.table(name)
        old_version = self._versions[name]
        updated = old.append(delta.renamed(name))
        self._tables[name] = updated
        self._versions[name] = old_version + 1
        self._catalog_version += 1

        old_token = ("denorm", name, old_version)
        new_token = ("denorm", name, old_version + 1)
        for key, cached in self.join_cache.entries_for_token(old_token):
            _, joins, dimension_versions = key
            if dimension_versions != self._dimension_versions(joins):
                continue  # a dimension changed since; let it rebuild lazily
            delta_joined = delta.renamed(name)
            for join_clause in joins:
                delta_joined = self.join(delta_joined, join_clause)
            self.store_join(new_token, joins, cached.append(delta_joined))
        return updated

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_version(self, name: str) -> int:
        """Monotonic version of a table's contents (bumped by appends)."""
        self.table(name)
        return self._versions[name]

    @property
    def catalog_version(self) -> int:
        """Monotonic version of the whole catalog's contents.

        Bumped whenever any table is added or replaced; the serving layer's
        answer cache keys embed it so an answer computed before a data append
        can never be served afterwards.
        """
        return self._catalog_version

    def fact_tables(self) -> list[str]:
        return sorted(self._fact_tables)

    def is_fact_table(self, name: str) -> bool:
        return name in self._fact_tables

    # ----------------------------------------------------------- foreign keys

    def add_foreign_key(
        self,
        fact_table: str,
        fact_column: str,
        dimension_table: str,
        dimension_column: str,
    ) -> None:
        """Declare a foreign key used for fact-dimension joins."""
        for table_name, column_name in (
            (fact_table, fact_column),
            (dimension_table, dimension_column),
        ):
            table = self.table(table_name)
            if not table.has_column(column_name):
                raise CatalogError(
                    f"table {table_name!r} has no column {column_name!r}"
                )
        self._foreign_keys.append(
            ForeignKey(fact_table, fact_column, dimension_table, dimension_column)
        )

    def foreign_keys(self, fact_table: str | None = None) -> list[ForeignKey]:
        if fact_table is None:
            return list(self._foreign_keys)
        return [fk for fk in self._foreign_keys if fk.fact_table == fact_table]

    def find_foreign_key(self, fact_table: str, dimension_table: str) -> ForeignKey | None:
        for fk in self._foreign_keys:
            if fk.fact_table == fact_table and fk.dimension_table == dimension_table:
                return fk
        return None

    # --------------------------------------------------------------- joining

    def join(self, base: Table, join_clause: ast.JoinClause) -> Table:
        """Hash-join ``base`` with a dimension table along an equi-join clause.

        The join is a foreign-key join: every base row is expected to match at
        most one dimension row; unmatched base rows are dropped (inner join),
        which is what Verdict's supported join class produces.
        """
        dimension = self.table(join_clause.table)
        left_name, right_name = self._resolve_join_columns(base, dimension, join_clause)
        left_keys = base.column(left_name)
        right_keys = dimension.column(right_name)

        matches = match_foreign_keys(left_keys, right_keys)
        keep = matches >= 0
        # Gathering the dimension's stored arrays gathers its categorical
        # codes and shares its dictionaries: a joined sample never re-hashes.
        added = [name for name in dimension.column_names() if not base.has_column(name)]
        return base.filter(keep).hstack(dimension.select(added).take(matches[keep]))

    def join_all(
        self,
        base: Table,
        joins: tuple[ast.JoinClause, ...],
        cache_token: Hashable | None = None,
    ) -> Table:
        """Apply a sequence of joins to ``base``, optionally memoised.

        ``cache_token`` identifies the base table's contents (e.g. a sample
        prefix token plus row count); when given, the joined result is cached
        under (token, joins, dimension versions) and reused on repeat calls.
        """
        if not joins:
            return base
        if cache_token is not None:
            cached = self.cached_join(cache_token, joins)
            if cached is not None:
                return cached
        joined = base
        for join_clause in joins:
            joined = self.join(joined, join_clause)
        if cache_token is not None:
            self.store_join(cache_token, joins, joined)
        return joined

    def cached_join(
        self, cache_token: Hashable, joins: tuple[ast.JoinClause, ...]
    ) -> Table | None:
        """Look up a previously stored join of the base identified by the token."""
        return self.join_cache.get((cache_token, joins, self._dimension_versions(joins)))

    def store_join(
        self, cache_token: Hashable, joins: tuple[ast.JoinClause, ...], table: Table
    ) -> None:
        """Memoise a joined table under the base token + joins + dim versions."""
        self.join_cache.put((cache_token, joins, self._dimension_versions(joins)), table)

    def denormalize(self, query: ast.Query) -> Table:
        """Apply every join in ``query`` to its base table, in order.

        Repeated denormalisations of the same (table version, join clauses)
        pair are served from the denormalization cache.
        """
        table = self.table(query.table)
        if not query.joins:
            return table
        token = ("denorm", query.table, self._versions[query.table])
        return self.join_all(table, query.joins, cache_token=token)

    def _dimension_versions(self, joins: tuple[ast.JoinClause, ...]) -> tuple[int, ...]:
        return tuple(self._versions.get(join.table, -1) for join in joins)

    def _resolve_join_columns(
        self, base: Table, dimension: Table, join_clause: ast.JoinClause
    ) -> tuple[str, str]:
        """Figure out which side of the ON clause refers to the base table.

        When both orientations resolve (each column name exists in both
        tables), the qualified table names in the AST break the tie: a column
        qualified with the dimension table's name belongs to the dimension
        side, any other qualifier to the base side.
        """
        left, right = join_clause.left_column, join_clause.right_column
        candidates = [(left, right), (right, left)]
        resolvable = [
            (base_ref, dimension_ref)
            for base_ref, dimension_ref in candidates
            if base.has_column(base_ref.name) and dimension.has_column(dimension_ref.name)
        ]
        if not resolvable:
            raise CatalogError(
                f"cannot resolve join ON {left.qualified} = {right.qualified} between "
                f"{base.name!r} and {dimension.name!r}"
            )
        for base_ref, dimension_ref in resolvable:
            dimension_side_ok = dimension_ref.table in (None, dimension.name)
            base_side_ok = base_ref.table != dimension.name
            if dimension_side_ok and base_side_ok:
                return base_ref.name, dimension_ref.name
        # Qualifiers contradict both orientations; keep the historical
        # behaviour of trusting the first resolvable candidate.
        base_ref, dimension_ref = resolvable[0]
        return base_ref.name, dimension_ref.name

    # --------------------------------------------------------------- metadata

    def cardinality(self, name: str) -> int:
        """Number of rows of a table (used to scale FREQ(*) into COUNT(*))."""
        return self.table(name).num_rows

    @classmethod
    def of(cls, tables: Iterable[Table], fact_tables: Iterable[str] = ()) -> "Catalog":
        """Convenience constructor from an iterable of tables."""
        catalog = cls()
        fact_set = set(fact_tables)
        for table in tables:
            catalog.add_table(table, fact=table.name in fact_set)
        return catalog
