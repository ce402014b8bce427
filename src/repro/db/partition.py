"""Partitioned storage: column chunks and zone maps.

Every :class:`~repro.db.table.Table` can be viewed as a sequence of
fixed-size row *partitions* (column chunks).  This module derives and caches,
per table instance:

* **partition bounds** -- ``[start, end)`` row ranges of ``partition_rows``
  rows each (the last partition may be partial);
* **zone maps** -- per-partition statistics: the min/max of every numeric
  column (NaN-aware) and the set of dictionary codes present for every
  categorical column (read off the table's own codes, see
  :mod:`repro.db.table`).  Selective predicates consult them to skip
  partitions without touching the underlying arrays (:mod:`repro.db.scan`).

Tables are immutable, so partition state is memoised in a
``WeakKeyDictionary`` keyed by table instance.  ``Table.append`` records
*append lineage* (:func:`note_append`): an appended table keeps its prefix
rows' codes verbatim, so it reuses every full prefix partition's zone map
unchanged and only builds zone maps for the new tail partitions.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

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
# child -> (weakref to parent, prefix rows) recorded by Table.append
_append_lineage: "weakref.WeakKeyDictionary[Table, tuple[weakref.ref, int]]" = (
    weakref.WeakKeyDictionary()
)


def note_append(parent: Table, child: Table) -> None:
    """Record that ``child`` is ``parent`` plus appended rows."""
    with _cache_lock:
        _append_lineage[child] = (weakref.ref(parent), len(parent))


def _append_parent(table: Table) -> tuple[Table, int] | None:
    entry = _append_lineage.get(table)
    if entry is None:
        return None
    parent = entry[0]()
    if parent is None:
        return None
    return parent, entry[1]


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
            codes = table.codes(column.name)[start:end]
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
    """Number of distinct values present in a categorical column.

    Counted from the zone maps' code sets, not the dictionary: a taken,
    filtered or joined table shares a dictionary that may hold values none
    of its rows carry.
    """
    zone_maps = table_partitions(table).zone_maps
    return len(frozenset().union(*(zone_map.categorical[name] for zone_map in zone_maps)))
