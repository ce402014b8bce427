"""Vectorized group-by execution kernel.

This module is the shared scan/group/aggregate engine underneath both the
exact executor (:mod:`repro.db.executor`) and the sampling-based AQP
evaluation (:mod:`repro.aqp.evaluation`).  The tables are NumPy-columnar, so
grouping is done by *factorization*: each group column is encoded into dense
integer codes, the per-column codes are combined into a single code array,
and every per-group quantity is then a segment operation over the selected
rows -- one pass over the data instead of one pass per group.

Column encodings are memoised per :class:`~repro.db.table.Table` instance
(tables are immutable -- every table operation returns a new instance), so a
group column is dictionary-encoded once and every later query over the same
table factorizes with pure C-level gathers.  Integer columns are encoded by
offset when their value span is dense, floats by ``np.unique``, and
object/NaN columns by a first-seen hash encoding.

Semantics are kept byte-identical to the retained legacy path
(:func:`iter_groups_legacy`, the original per-row Python loop):

* groups appear in **first-seen order** of the selected rows;
* group keys are tuples of :func:`normalize_value` applied to the *first*
  selected row of each group (NumPy scalars become plain ``int``/``float``);
* per-group SUM/AVG/MIN/MAX are computed with the same NumPy reductions over
  the same value sequence (ascending row order within a group), so pairwise
  summation produces bit-identical floats;
* float group columns containing NaN use the hash encoding, where -- exactly
  like the legacy tuple keys -- every NaN row forms its own group.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

import numpy as np

from repro.db.table import Table
from repro.errors import ExpressionError
from repro.sqlparser import ast

Value = Union[int, float, str]

# Combined group codes are built positionally (code = code * radix + next);
# past this bound the product of per-column cardinalities could overflow
# int64, so the kernel falls back to hashing row tuples.
_MAX_COMBINED_CODE = 2**62

# NumPy's stable sort is an O(n) radix sort for integers of at most 16 bits
# and a merge sort above (41.7 vs 7.1 ms for 1M codes, same permutation), so
# combined codes are sorted through the narrowest unsigned view holding them.
_RADIX_SORT_CODES = 2**16

# Dense integer columns are encoded as ``value - min`` when their span is at
# most this factor of the row count (beyond that the radix blow-up would
# outweigh the saved sort and we fall back to ``np.unique``).
_DENSE_INT_SPAN_FACTOR = 8

# Per-table memo of column encodings: table -> {column name -> (codes, size)}.
# Weak keys let dropped tables release their encodings.
_column_codes_cache: "weakref.WeakKeyDictionary[Table, dict[str, tuple[np.ndarray, int]]]" = (
    weakref.WeakKeyDictionary()
)


def normalize_value(value: object) -> Value:
    """Convert NumPy scalars into plain Python values for hashable group keys."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value  # type: ignore[return-value]


@dataclass
class GroupedSelection:
    """The factorized form of one grouped selection.

    Attributes
    ----------
    keys:
        Group key tuples in first-seen order (one per group).
    selected_indices:
        The selected row indices in ascending row order.
    order:
        The stable permutation of the *selected* rows that makes each
        group's rows contiguous while keeping ascending row order inside a
        group.  Arrays aligned with the selected rows (e.g. measures
        evaluated only over the selected subset of a pruned scan) are
        gathered into segment order with it (:meth:`take_selected`).
    starts / ends:
        Per-group segment bounds into the permuted rows: group ``g`` owns
        ``sorted_indices[starts[g]:ends[g]]``.  Segments are laid out in
        combined-code order, so these arrays are *not* monotonic in group
        order.
    counts:
        Number of selected rows per group.
    """

    keys: list[tuple[Value, ...]]
    selected_indices: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    counts: np.ndarray

    @property
    def num_groups(self) -> int:
        return len(self.keys)

    @cached_property
    def sorted_indices(self) -> np.ndarray:
        """``selected_indices[order]``: row indices in group-segment order.

        The same order a boolean mask would select each group's rows in.
        Gathered on first read -- the selected-rows path
        (:meth:`take_selected`) never needs it.
        """
        return self.selected_indices[self.order]

    def group_indices(self, group: int) -> np.ndarray:
        """Selected row indices of one group, in ascending row order."""
        return self.sorted_indices[self.starts[group] : self.ends[group]]

    def group_mask(self, group: int, num_rows: int) -> np.ndarray:
        """Full-length boolean mask of one group (legacy-shaped interface)."""
        mask = np.zeros(num_rows, dtype=bool)
        mask[self.group_indices(group)] = True
        return mask

    def take(self, values: np.ndarray) -> np.ndarray:
        """Gather ``values`` at the selected rows, in group-segment order.

        The result is aligned with ``sorted_indices``: the slice
        ``[starts[g], ends[g])`` holds group ``g``'s values in the same order
        as ``values[group_mask]`` would.
        """
        return values[self.sorted_indices]

    def take_selected(self, values_selected: np.ndarray) -> np.ndarray:
        """Gather values *aligned with the selected rows* into segment order.

        ``values_selected[i]`` must correspond to the ``i``-th selected row in
        ascending row order (``table.take(selected_indices)`` alignment); the
        result is element-identical to :meth:`take` over the full-length
        array, so downstream reductions stay bit-identical.
        """
        return values_selected[self.order]


def _encode_hashed(values) -> tuple[np.ndarray, int]:
    """Dict-based first-seen integer encoding (object dtype / NaN fallback).

    Matches the legacy dict-of-keys behaviour exactly, including NaN keys:
    NaN != NaN, so every NaN occurrence receives a fresh code.
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    mapping: dict[object, int] = {}
    setdefault = mapping.setdefault
    codes = np.fromiter(
        (setdefault(value, len(mapping)) for value in values),
        dtype=np.int64,
        count=len(values),
    )
    return codes, len(mapping)


def _encode_column(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Encode one whole group column into dense integer codes.

    The encoding is injective with respect to the legacy group-key equality
    (dict key equality of the normalised values), so grouping by codes
    partitions rows exactly as grouping by values does.
    """
    if values.dtype == object:
        return _encode_hashed(values)
    if np.issubdtype(values.dtype, np.floating):
        if np.isnan(values).any():
            # np.unique collapses NaNs while the legacy dict keys keep each
            # NaN distinct; the hashed path reproduces the legacy grouping.
            return _encode_hashed(values)
        uniques, inverse = np.unique(values, return_inverse=True)
        return inverse.reshape(-1).astype(np.int64, copy=False), len(uniques)
    if len(values) == 0:
        return np.zeros(0, dtype=np.int64), 0
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span <= max(_DENSE_INT_SPAN_FACTOR * len(values), 1024):
        return values.astype(np.int64, copy=False) - low, span
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.reshape(-1).astype(np.int64, copy=False), len(uniques)


def _column_codes(table: Table, name: str) -> tuple[np.ndarray, int]:
    """The memoised whole-column encoding of one group column.

    Contiguous slice views (``Table.slice_rows``, e.g. sample batch prefixes
    and scan morsels) reuse the parent table's encoding by slicing its code
    array: any injective encoding partitions the slice's rows identically,
    and group keys/order are derived from the values, not the codes.
    """
    per_table = _column_codes_cache.get(table)
    if per_table is None:
        per_table = {}
        _column_codes_cache[table] = per_table
    entry = per_table.get(name)
    if entry is None:
        from repro.db.partition import slice_parent

        sliced = slice_parent(table)
        if sliced is not None:
            parent, start, stop = sliced
            parent_codes, size = _column_codes(parent, name)
            entry = (parent_codes[start:stop], size)
        else:
            entry = _encode_column(table.column(name))
        per_table[name] = entry
    return entry


def factorize(
    table: Table,
    mask: np.ndarray | None,
    group_columns: Sequence[str],
    selected_indices: np.ndarray | None = None,
) -> GroupedSelection | None:
    """Factorize the rows of ``table`` selected by ``mask`` into groups.

    Returns ``None`` when no rows are selected (no groups -- the legacy
    iterator yielded nothing in that case).  ``group_columns`` must be
    non-empty; the scalar (no GROUP BY) case never reaches the kernel.

    ``selected_indices`` (ascending row indices) may be passed instead of a
    mask -- the partitioned scan driver already has them, and skipping the
    full-length ``flatnonzero`` keeps grouped execution proportional to the
    selected rows.
    """
    if selected_indices is None:
        assert mask is not None
        selected_indices = np.flatnonzero(mask)
    num_selected = len(selected_indices)
    if num_selected == 0:
        return None
    columns = [table.column(name) for name in group_columns]

    encoded = [_column_codes(table, name) for name in group_columns]
    num_codes = 1
    for _, size in encoded:
        num_codes *= max(size, 1)
    if num_codes > _MAX_COMBINED_CODE:
        combined, num_codes = _encode_hashed(
            list(zip(*(column[selected_indices].tolist() for column in columns)))
        )
    else:
        combined = encoded[0][0][selected_indices]
        for codes, size in encoded[1:]:
            combined = combined * size
            combined += codes[selected_indices]

    # One stable sort groups equal codes into contiguous segments while
    # keeping ascending row order inside each segment (= boolean-mask order).
    if num_codes <= _RADIX_SORT_CODES:
        narrow = np.uint8 if num_codes <= 2**8 else np.uint16
        order = np.argsort(combined.astype(narrow), kind="stable")
        # Segments are laid out in code order, so their sizes are the
        # non-zero code counts -- no gather-and-diff of the sorted codes.
        code_counts = np.bincount(combined)
        segment_sizes = code_counts[code_counts > 0]
        segment_ends = np.cumsum(segment_sizes)
        segment_starts = segment_ends - segment_sizes
    else:
        order = np.argsort(combined, kind="stable")
        sorted_codes = combined[order]
        change = np.empty(num_selected, dtype=bool)
        change[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=change[1:])
        segment_starts = np.flatnonzero(change)
        segment_ends = np.append(segment_starts[1:], num_selected)
    # Stability makes the head of each segment its earliest selected
    # position; ranking segments by it yields first-seen group order.
    first_positions = order[segment_starts]
    by_first_seen = np.argsort(first_positions, kind="stable")

    starts = segment_starts[by_first_seen]
    ends = segment_ends[by_first_seen]
    key_rows = selected_indices[first_positions[by_first_seen]]
    keys = [
        tuple(normalize_value(column[row]) for column in columns) for row in key_rows
    ]
    return GroupedSelection(
        keys=keys,
        selected_indices=selected_indices,
        order=order,
        starts=starts,
        ends=ends,
        counts=ends - starts,
    )


def segment_aggregate(
    function: ast.AggregateFunction,
    grouped: GroupedSelection,
    values: np.ndarray | None,
    total_rows: int,
    values_are_selected: bool = False,
) -> np.ndarray:
    """All groups' values of one aggregate function, in group order.

    ``values`` is the measure expression evaluated over the *whole* table
    (``None`` for ``*`` aggregates); it is gathered into segment order once
    and each group's reduction runs over its contiguous slice -- the same
    NumPy reduction over the same operand sequence as the legacy per-group
    ``values[mask]`` calls, so results are bit-identical.

    With ``values_are_selected`` the measure was evaluated only over the
    selected rows (ascending row order) -- the partitioned executor does this
    so measure evaluation is proportional to the rows a pruned scan kept --
    and is gathered through the recorded selection permutation instead.
    """
    counts = grouped.counts
    if function is ast.AggregateFunction.COUNT:
        return counts.astype(np.float64)
    if function is ast.AggregateFunction.FREQ:
        if total_rows <= 0:
            return np.zeros(len(counts), dtype=np.float64)
        return counts.astype(np.float64) / float(total_rows)
    if values is None:
        raise ExpressionError(f"aggregate {function} requires an argument")
    if values_are_selected:
        taken = grouped.take_selected(np.asarray(values, dtype=np.float64))
    else:
        taken = grouped.take(np.asarray(values, dtype=np.float64))
    starts, ends = grouped.starts, grouped.ends
    out = np.empty(grouped.num_groups, dtype=np.float64)
    if function is ast.AggregateFunction.SUM:
        for group in range(grouped.num_groups):
            out[group] = taken[starts[group] : ends[group]].sum()
    elif function is ast.AggregateFunction.AVG:
        for group in range(grouped.num_groups):
            out[group] = taken[starts[group] : ends[group]].mean()
    elif function is ast.AggregateFunction.MIN:
        for group in range(grouped.num_groups):
            out[group] = taken[starts[group] : ends[group]].min()
    elif function is ast.AggregateFunction.MAX:
        for group in range(grouped.num_groups):
            out[group] = taken[starts[group] : ends[group]].max()
    else:  # pragma: no cover - exhaustive over the enum
        raise ExpressionError(f"unknown aggregate function {function}")
    return out


def iter_groups_legacy(
    table: Table, mask: np.ndarray, group_columns: Sequence[str]
) -> Iterator[tuple[tuple[Value, ...], np.ndarray]]:
    """The pre-kernel per-row grouping loop: (key tuple, boolean mask) pairs.

    Retained as the reference implementation: the property tests assert the
    factorized kernel reproduces it byte-for-byte, and the benchmark measures
    the kernel's speedup against it.
    """
    selected_indices = np.flatnonzero(mask)
    if len(selected_indices) == 0:
        return
    columns = [table.column(name) for name in group_columns]
    groups: dict[tuple[Value, ...], list[int]] = {}
    order: list[tuple[Value, ...]] = []
    for index in selected_indices:
        key = tuple(normalize_value(column[index]) for column in columns)
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [int(index)]
            order.append(key)
        else:
            bucket.append(int(index))
    for key in order:
        group_mask = np.zeros(len(table), dtype=bool)
        group_mask[np.asarray(groups[key], dtype=np.int64)] = True
        yield key, group_mask
