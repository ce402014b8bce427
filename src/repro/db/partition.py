"""Partitioned storage: column chunks, zone maps, and string dictionaries.

Every :class:`~repro.db.table.Table` can be viewed as a sequence of
fixed-size row *partitions* (column chunks).  This module derives and caches,
per table instance:

* **partition bounds** -- ``[start, end)`` row ranges of ``partition_rows``
  rows each (the last partition may be partial);
* **zone maps** -- per-partition statistics: the min/max of every numeric
  column (NaN-aware) and the set of dictionary codes present for every
  categorical column.  Selective predicates consult them to skip partitions
  without touching the underlying arrays (:mod:`repro.db.scan`);
* **column dictionaries** -- a table-wide dictionary encoding of every
  categorical column: distinct values in first-seen order plus an int64 code
  array aligned with the rows.  Equality / IN / LIKE / range predicates on
  strings evaluate once per *distinct value* and gather through the codes
  instead of looping over Python objects per row
  (:mod:`repro.db.expressions`).

Tables are immutable, so all derived state is memoised in
``WeakKeyDictionary`` caches keyed by table instance.  Two kinds of *lineage*
are tracked so derived state is reused instead of rebuilt:

* **append lineage** (:func:`note_append`, recorded by ``Table.append``): the
  appended table reuses every full prefix partition's zone map unchanged and
  extends the column dictionaries in place of re-encoding -- codes are
  assigned in first-seen order, so the prefix rows' codes (and hence the
  prefix zone maps' code sets) stay valid verbatim.  Appends therefore only
  build zone maps for the new tail partitions.
* **slice lineage** (:func:`note_slice`, recorded by ``Table.slice_rows``):
  a contiguous row view shares its parent's dictionaries by slicing the code
  array (zero copy), so per-batch sample prefixes and per-partition morsel
  views never re-encode strings.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.db.schema import ColumnKind
from repro.db.table import Table

#: Default number of rows per partition.  A partition is the *pruning*
#: granule: one zone map each, small enough that a selective predicate over
#: clustered data skips most of a 100k-row table.  It is not the *evaluation*
#: granule -- per-partition NumPy dispatch measured > 50 % of scan time, so
#: the scan driver evaluates runs of adjacent surviving partitions
#: (:data:`repro.db.scan.MORSEL_ROWS`).
DEFAULT_PARTITION_ROWS = 8192

_cache_lock = threading.RLock()

# table -> TablePartitions
_partitions_cache: "weakref.WeakKeyDictionary[Table, TablePartitions]" = (
    weakref.WeakKeyDictionary()
)
# table -> {column name -> ColumnDictionary}
_dictionary_cache: "weakref.WeakKeyDictionary[Table, dict[str, ColumnDictionary]]" = (
    weakref.WeakKeyDictionary()
)
# child -> (weakref to parent, prefix rows) recorded by Table.append
_append_lineage: "weakref.WeakKeyDictionary[Table, tuple[weakref.ref, int]]" = (
    weakref.WeakKeyDictionary()
)
# child -> (weakref to parent, start, stop) recorded by Table.slice_rows
_slice_lineage: "weakref.WeakKeyDictionary[Table, tuple[weakref.ref, int, int]]" = (
    weakref.WeakKeyDictionary()
)


# --------------------------------------------------------------------------- #
# Lineage bookkeeping
# --------------------------------------------------------------------------- #


def note_append(parent: Table, child: Table) -> None:
    """Record that ``child`` is ``parent`` plus appended rows."""
    with _cache_lock:
        _append_lineage[child] = (weakref.ref(parent), len(parent))


def note_slice(parent: Table, child: Table, start: int, stop: int) -> None:
    """Record that ``child`` is the contiguous row view ``parent[start:stop]``."""
    with _cache_lock:
        _slice_lineage[child] = (weakref.ref(parent), start, stop)


def slice_parent(table: Table) -> tuple[Table, int, int] | None:
    """The (parent, start, stop) of a slice view, if the parent is alive."""
    with _cache_lock:
        entry = _slice_lineage.get(table)
        if entry is None:
            return None
        parent = entry[0]()
        if parent is None:
            return None
        return parent, entry[1], entry[2]


def _append_parent(table: Table) -> tuple[Table, int] | None:
    entry = _append_lineage.get(table)
    if entry is None:
        return None
    parent = entry[0]()
    if parent is None:
        return None
    return parent, entry[1]


# --------------------------------------------------------------------------- #
# Column dictionaries
# --------------------------------------------------------------------------- #


@dataclass
class ColumnDictionary:
    """Dictionary encoding of one categorical column.

    ``values[code]`` is the distinct value assigned ``code`` (codes are
    assigned in first-seen row order, so appending rows never renumbers
    existing codes); ``codes`` is the int64 code of every row; ``index`` maps
    value -> code.  Instances are immutable by convention and may share
    ``values``/``index``/``match_cache`` with slices of the same table.

    ``match_cache`` memoises per-distinct-value predicate evaluations
    (:func:`repro.db.expressions.distinct_match_mask`) keyed by a
    value-derived leaf key, so a morsel scan evaluates each string predicate
    once per *table*, not once per partition view.
    """

    values: list
    codes: np.ndarray
    index: dict
    match_cache: dict = field(default_factory=dict)

    @property
    def num_distinct(self) -> int:
        return len(self.values)

    def code_for(self, value: object) -> int | None:
        """The code of ``value``, or ``None`` when it never occurs."""
        try:
            return self.index.get(value)
        except TypeError:  # unhashable literal can never equal a stored value
            return None


def _encode_first_seen(values: Iterable) -> ColumnDictionary:
    if isinstance(values, np.ndarray):
        values = values.tolist()
    index: dict = {}
    ordered: list = []
    codes = np.empty(len(values), dtype=np.int64)
    for row, value in enumerate(values):
        code = index.get(value)
        if code is None:
            code = len(ordered)
            index[value] = code
            ordered.append(value)
        codes[row] = code
    return ColumnDictionary(values=ordered, codes=codes, index=index)


def _extend_dictionary(parent: ColumnDictionary, suffix: np.ndarray) -> ColumnDictionary:
    """Extend a dictionary with appended rows, preserving existing codes."""
    index = dict(parent.index)
    ordered = list(parent.values)
    tail = np.empty(len(suffix), dtype=np.int64)
    for row, value in enumerate(suffix.tolist()):
        code = index.get(value)
        if code is None:
            code = len(ordered)
            index[value] = code
            ordered.append(value)
        tail[row] = code
    return ColumnDictionary(
        values=ordered, codes=np.concatenate([parent.codes, tail]), index=index
    )


def column_dictionary(table: Table, name: str) -> ColumnDictionary:
    """The (memoised) dictionary encoding of one categorical column.

    Slice views share the parent's dictionary through a zero-copy code
    slice; appended tables extend the parent's dictionary so prefix codes
    never change.
    """
    with _cache_lock:
        per_table = _dictionary_cache.get(table)
        if per_table is None:
            per_table = {}
            _dictionary_cache[table] = per_table
        entry = per_table.get(name)
        if entry is not None:
            return entry

        sliced = slice_parent(table)
        if sliced is not None:
            parent, start, stop = sliced
            parent_entry = column_dictionary(parent, name)
            entry = ColumnDictionary(
                values=parent_entry.values,
                codes=parent_entry.codes[start:stop],
                index=parent_entry.index,
                match_cache=parent_entry.match_cache,
            )
        else:
            appended = _append_parent(table)
            if appended is not None:
                parent, prefix_rows = appended
                parent_entry = column_dictionary(parent, name)
                entry = _extend_dictionary(
                    parent_entry, table.column(name)[prefix_rows:]
                )
            else:
                entry = _encode_first_seen(table.column(name))
        per_table[name] = entry
        return entry


# --------------------------------------------------------------------------- #
# Zone maps and partitions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class NumericZone:
    """Min/max statistics of one numeric column over one partition.

    ``low``/``high`` ignore NaNs and are ``nan`` when the partition holds no
    finite value; ``has_nan`` records whether any NaN is present (NaN rows
    never satisfy ordered comparisons but *do* satisfy ``!=``).
    """

    low: float
    high: float
    has_nan: bool

    @property
    def all_nan(self) -> bool:
        return bool(np.isnan(self.low))


@dataclass(frozen=True)
class ZoneMap:
    """Per-partition pruning statistics.

    ``numeric`` maps numeric column names to :class:`NumericZone`;
    ``categorical`` maps categorical column names to the frozenset of
    dictionary codes present in the partition.
    """

    numeric: dict[str, NumericZone]
    categorical: dict[str, frozenset]


@dataclass
class TablePartitions:
    """The partition layout and zone maps of one table.

    ``sizes`` is the int64 row count of every partition (the array form of
    ``bounds``), so per-ask bookkeeping over a may-match mask is array
    arithmetic instead of a Python loop over partitions.
    """

    partition_rows: int
    num_rows: int
    bounds: tuple[tuple[int, int], ...]
    zone_maps: list[ZoneMap]
    sizes: np.ndarray = field(init=False, repr=False)
    _numeric_stats: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        bounds = np.asarray(self.bounds, dtype=np.int64).reshape(-1, 2)
        self.sizes = bounds[:, 1] - bounds[:, 0]

    @property
    def num_partitions(self) -> int:
        return len(self.bounds)

    def numeric_stats(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Per-partition ``(lows, highs, has_nan)`` arrays of a numeric column.

        Vectorized view of the zone maps so predicate pruning is a handful of
        NumPy comparisons over P-length arrays instead of a Python loop over
        partitions.  All-NaN partitions carry ``nan`` bounds (comparisons
        with them are False, so they prune out of every ordered predicate).
        Returns ``None`` when the column has no zones (categorical/unknown).
        """
        cached = self._numeric_stats.get(name)
        if cached is not None:
            return cached
        if not self.zone_maps or name not in self.zone_maps[0].numeric:
            return None
        lows = np.empty(len(self.zone_maps), dtype=np.float64)
        highs = np.empty(len(self.zone_maps), dtype=np.float64)
        has_nan = np.empty(len(self.zone_maps), dtype=bool)
        for index, zone_map in enumerate(self.zone_maps):
            zone = zone_map.numeric[name]
            lows[index] = zone.low
            highs[index] = zone.high
            has_nan[index] = zone.has_nan
        entry = (lows, highs, has_nan)
        self._numeric_stats[name] = entry
        return entry


def _partition_bounds(num_rows: int, partition_rows: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (start, min(start + partition_rows, num_rows))
        for start in range(0, num_rows, partition_rows)
    )


def _zone_map(table: Table, start: int, end: int) -> ZoneMap:
    numeric: dict[str, NumericZone] = {}
    categorical: dict[str, frozenset] = {}
    for column in table.schema:
        if column.kind is ColumnKind.CATEGORY:
            codes = column_dictionary(table, column.name).codes[start:end]
            categorical[column.name] = frozenset(np.unique(codes).tolist())
        elif column.kind is ColumnKind.FLOAT:
            chunk = table.column(column.name)[start:end]
            nan_mask = np.isnan(chunk)
            has_nan = bool(nan_mask.any())
            if has_nan and nan_mask.all():
                numeric[column.name] = NumericZone(float("nan"), float("nan"), True)
            else:
                numeric[column.name] = NumericZone(
                    float(np.nanmin(chunk)), float(np.nanmax(chunk)), has_nan
                )
        else:  # INT: no NaN possible
            chunk = table.column(column.name)[start:end]
            numeric[column.name] = NumericZone(
                float(chunk.min()), float(chunk.max()), False
            )
    return ZoneMap(numeric=numeric, categorical=categorical)


def _build_partitions(table: Table, partition_rows: int) -> TablePartitions:
    bounds = _partition_bounds(len(table), partition_rows)
    zone_maps = [_zone_map(table, start, end) for start, end in bounds]
    return TablePartitions(
        partition_rows=partition_rows,
        num_rows=len(table),
        bounds=bounds,
        zone_maps=zone_maps,
    )


def _extend_partitions(
    table: Table, parent_partitions: TablePartitions, prefix_rows: int
) -> TablePartitions:
    """Partitions of an appended table, reusing the parent's full partitions.

    Every parent partition that is *full* (exactly ``partition_rows`` rows)
    keeps its zone map verbatim -- its rows and their dictionary codes are
    unchanged.  Only the parent's trailing partial partition (now holding
    appended rows too) and the brand-new tail partitions are rebuilt.
    """
    partition_rows = parent_partitions.partition_rows
    reused_full = prefix_rows // partition_rows  # trailing partial is rebuilt
    bounds = _partition_bounds(len(table), partition_rows)
    zone_maps = list(parent_partitions.zone_maps[:reused_full])
    for start, end in bounds[reused_full:]:
        zone_maps.append(_zone_map(table, start, end))
    return TablePartitions(
        partition_rows=partition_rows,
        num_rows=len(table),
        bounds=bounds,
        zone_maps=zone_maps,
    )


def table_partitions(table: Table, partition_rows: int | None = None) -> TablePartitions:
    """The (memoised) partition layout + zone maps of ``table``.

    ``partition_rows`` only matters on the first call for a given table
    instance (later calls return the cached layout); appended tables inherit
    the parent's partition size so prefix partitions stay aligned.
    """
    with _cache_lock:
        cached = _partitions_cache.get(table)
        if cached is not None:
            return cached
        appended = _append_parent(table)
        if appended is not None:
            parent, prefix_rows = appended
            parent_cached = _partitions_cache.get(parent)
            if parent_cached is not None:
                built = _extend_partitions(table, parent_cached, prefix_rows)
                _partitions_cache[table] = built
                return built
        built = _build_partitions(table, partition_rows or DEFAULT_PARTITION_ROWS)
        _partitions_cache[table] = built
        return built


# --------------------------------------------------------------------------- #
# Table-level statistics derived from partition state
# --------------------------------------------------------------------------- #


def numeric_bounds(table: Table, name: str) -> tuple[float, float] | None:
    """Table-wide (min, max) of a numeric column, merged from zone maps.

    Returns ``None`` for empty tables or all-NaN columns.  After an append
    only the new partitions' statistics are computed (prefix zone maps are
    reused), so the min/max part of domain recomputation stays proportional
    to the appended rows.
    """
    partitions = table_partitions(table)
    low = float("inf")
    high = float("-inf")
    for zone_map in partitions.zone_maps:
        zone = zone_map.numeric.get(name)
        if zone is None or zone.all_nan:
            continue
        low = min(low, zone.low)
        high = max(high, zone.high)
    if low > high:
        return None
    return low, high


def numeric_has_nan(table: Table, name: str) -> bool:
    """Whether any partition of a numeric column contains a NaN."""
    partitions = table_partitions(table)
    return any(
        zone_map.numeric[name].has_nan or zone_map.numeric[name].all_nan
        for zone_map in partitions.zone_maps
        if name in zone_map.numeric
    )


def distinct_count(table: Table, name: str) -> int:
    """Number of distinct values of a categorical column (dictionary size)."""
    return column_dictionary(table, name).num_distinct
