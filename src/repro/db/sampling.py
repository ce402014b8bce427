"""Offline uniform samples and batch splitting for online aggregation.

The paper's baseline ("NoLearn", Section 8.1) creates random samples of the
original tables offline and splits them into multiple batches of tuples; an
online aggregation run processes batches one after another, refining its
answer.  Like most sample-based AQP engines, only fact tables are sampled;
dimension tables are used whole (which is why TPC-H-style joins of unsampled
tables incur an extra cost penalty in the paper's SSD experiments).

:class:`TableSample` holds the shuffled sample of one fact table together with
its batch boundaries; :class:`SampleStore` builds and caches samples for a
catalog.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.config import SamplingConfig
from repro.db.catalog import Catalog
from repro.db.table import Table


@dataclass
class TableSample:
    """A uniform random sample of a table, split into batches.

    Attributes
    ----------
    table_name:
        Name of the sampled (fact) table.
    sample:
        The sampled rows, in randomised order, as a :class:`Table`.
    population_size:
        Number of rows of the original table (used to scale COUNT/SUM).
    sample_ratio:
        Fraction of the original rows contained in the sample.
    batch_offsets:
        Cumulative row offsets delimiting batches; ``batch_offsets[i]`` is the
        number of sample rows contained in the first ``i`` batches.
    sample_id:
        Process-unique id of this sample's contents.  Rebuilt/invalidated
        samples get a fresh id, so join-cache keys derived from
        :attr:`cache_token` can never alias stale data.
    """

    table_name: str
    sample: Table
    population_size: int
    sample_ratio: float
    batch_offsets: tuple[int, ...]
    sample_id: int = field(default_factory=itertools.count().__next__)
    _prefix_views: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def cache_token(self) -> tuple[str, str, int]:
        """Key component identifying this sample in the catalog's join cache."""
        return ("sample", self.table_name, self.sample_id)

    @property
    def sample_size(self) -> int:
        return len(self.sample)

    @property
    def num_batches(self) -> int:
        return len(self.batch_offsets)

    def rows_after_batches(self, batches: int) -> int:
        """Number of sample rows contained in the first ``batches`` batches."""
        if batches <= 0:
            return 0
        if batches >= self.num_batches:
            return self.sample_size
        return self.batch_offsets[batches - 1]

    def prefix(self, rows: int) -> Table:
        """The first ``rows`` rows of the (already shuffled) sample.

        Prefixes are zero-copy slice views of the sample, memoised per row
        count: repeated batches return the *same* table instance, so derived
        state (partition zone maps) is shared across queries and batches
        instead of rebuilt per call.
        """
        rows = max(0, min(rows, self.sample_size))
        view = self._prefix_views.get(rows)
        if view is None:
            view = self.sample.slice_rows(0, rows)
            self._prefix_views[rows] = view
        return view

    def iter_batch_prefixes(self) -> Iterator[tuple[int, Table]]:
        """Yield ``(rows_scanned, prefix_table)`` for each cumulative batch."""
        for batch_index in range(1, self.num_batches + 1):
            rows = self.rows_after_batches(batch_index)
            yield rows, self.prefix(rows)


def build_table_sample(
    table: Table, config: SamplingConfig, seed: int | None = None
) -> TableSample:
    """Draw a uniform random sample of ``table`` and split it into batches."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    population = len(table)
    sample_size = max(1, int(round(population * config.sample_ratio))) if population else 0
    permutation = rng.permutation(population)
    chosen = permutation[:sample_size]
    sample = table.take(chosen)

    num_batches = min(config.num_batches, max(1, sample_size))
    boundaries = np.linspace(0, sample_size, num_batches + 1).astype(int)[1:]
    # Ensure offsets are strictly increasing and end at the sample size.
    offsets: list[int] = []
    previous = 0
    for boundary in boundaries:
        boundary = int(boundary)
        if boundary <= previous:
            boundary = previous + 1
        boundary = min(boundary, sample_size)
        offsets.append(boundary)
        previous = boundary
    if offsets and offsets[-1] != sample_size:
        offsets[-1] = sample_size
    return TableSample(
        table_name=table.name,
        sample=sample,
        population_size=population,
        sample_ratio=config.sample_ratio,
        batch_offsets=tuple(dict.fromkeys(offsets)),
    )


class SampleStore:
    """Builds and caches offline samples of the fact tables of a catalog."""

    def __init__(self, catalog: Catalog, config: SamplingConfig | None = None):
        self.catalog = catalog
        self.config = config or SamplingConfig()
        self._samples: dict[str, TableSample] = {}
        # Concurrent readers of the serving layer may request the same
        # not-yet-built sample; the lock makes the build-once guarantee hold.
        self._lock = threading.Lock()

    def sample_for(self, table_name: str) -> TableSample:
        """Return (building and caching if needed) the sample of a fact table."""
        with self._lock:
            if table_name not in self._samples:
                table = self.catalog.table(table_name)
                self._samples[table_name] = build_table_sample(table, self.config)
            return self._samples[table_name]

    def invalidate(self, table_name: str | None = None) -> None:
        """Drop cached samples (all of them, or one table's).

        Must be called after a data append so that subsequent queries sample
        from the updated table.
        """
        with self._lock:
            if table_name is None:
                self._samples.clear()
            else:
                self._samples.pop(table_name, None)

    def rebuild(self, table_name: str, seed: int | None = None) -> TableSample:
        """Force-rebuild the sample of one table with an optional new seed."""
        table = self.catalog.table(table_name)
        sample = build_table_sample(table, self.config, seed=seed)
        with self._lock:
            self._samples[table_name] = sample
        return sample
