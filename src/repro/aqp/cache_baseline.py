"""Exact-match answer caching on top of online aggregation ("Baseline2").

Appendix C.1 compares Verdict against a strawman that simply caches all past
query answers: if a new query is *identical* to a past one, the cached answer
(the one with the lowest expected error seen so far) is returned immediately;
otherwise the query runs through plain online aggregation.  Unlike Verdict,
the cache cannot benefit *novel* queries.

Cache misses run through the wrapped engine and therefore through the
factorized group-by kernel (:mod:`repro.db.groupby`) and the catalog's
denormalization cache, so even a 0%-hit-rate workload executes at kernel
speed.
"""

from __future__ import annotations

from typing import Iterator

from repro.aqp.online_agg import OnlineAggregationEngine
from repro.aqp.types import AQPAnswer
from repro.sqlparser import ast


def _cache_key(query: ast.Query) -> ast.Query:
    """Queries are hashable dataclasses; the raw text is excluded from
    equality, so syntactically different but structurally identical queries
    share a cache entry."""
    return query


class CachingEngine:
    """Wraps an :class:`OnlineAggregationEngine` with exact-match caching."""

    def __init__(self, inner: OnlineAggregationEngine, hit_cost_s: float = 0.01):
        self.inner = inner
        self.hit_cost_s = hit_cost_s
        self._cache: dict[ast.Query, AQPAnswer] = {}
        self.hits = 0
        self.misses = 0

    def run(self, query: ast.Query) -> Iterator[AQPAnswer]:
        """Yield answers; a cache hit yields exactly one (cheap) answer."""
        key = _cache_key(query)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            yield AQPAnswer(
                query=query,
                group_columns=cached.group_columns,
                aggregate_names=cached.aggregate_names,
                rows=cached.rows,
                rows_scanned=0,
                sample_size=cached.sample_size,
                population_size=cached.population_size,
                elapsed_seconds=self.hit_cost_s,
                batches_processed=0,
            )
            return
        self.misses += 1
        last: AQPAnswer | None = None
        for answer in self.inner.run(query):
            last = answer
            yield answer
        if last is not None:
            self._remember(key, last)

    def final_answer(self, query: ast.Query) -> AQPAnswer:
        """The most accurate available answer (cache hit or full scan)."""
        last: AQPAnswer | None = None
        for answer in self.run(query):
            last = answer
        if last is None:
            raise ValueError("caching engine produced no answers")
        return last

    def _remember(self, key: ast.Query, answer: AQPAnswer) -> None:
        """Keep the lowest-error instance of each distinct query."""
        existing = self._cache.get(key)
        if existing is None:
            self._cache[key] = answer
            return
        if _mean_error(answer) < _mean_error(existing):
            self._cache[key] = answer

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def catalog(self):
        return self.inner.catalog


def _mean_error(answer: AQPAnswer) -> float:
    errors = [
        estimate.error for row in answer.rows for estimate in row.estimates.values()
    ]
    if not errors:
        return float("inf")
    return sum(errors) / len(errors)
