"""Seed-driven inputs of the four stack workloads.

Everything the program under test receives is made here: the base data and
the set of distinct queries (the same in every run, :data:`DATA_SEED`), the
trace ``--seed`` draws from that set, and a hash of it that is printed beside
the results so two runs can prove they replayed the same inputs.

Queries are *enumerated*, never drawn: each template owns a mixed-radix
parameter space, the generator picks distinct codes from it without
replacement and decodes them, so no two queries of a trace share their SQL
text.  (Independent RNG draws collided 11/400 and 23/200 when this benchmark
was sized, silently turning cache misses into hits.)  Each query also carries
a structured :class:`QuerySpec` -- filters, group column, aggregates -- that
only :mod:`oracle` reads; the program sees the SQL alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import Catalog
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.serve.http.__main__ import tenant_seed
from repro.workloads.customer1 import Customer1Workload
from repro.workloads.synthetic import make_sales_table

#: Tenant the HTTP workload talks to.
HTTP_TENANT = "bench"
#: Seeds the fixed design: the database and the set of distinct queries.
#: ``--seed`` draws the trace from it (see :func:`make_inputs`).
DATA_SEED = 2017

#: The four workloads; why each exists is recorded in ``BENCHMARK.json``.
WORKLOADS = ("svc_learned", "svc_exact", "http_cached", "svc_ingest")

#: svc_ingest's schedule, in ``record_answer`` calls: an ask after every 2nd
#: (every 4th gave ~50 asks a pass, too few for a median that repeats).
INGEST_ASK_EVERY, INGEST_TRAIN_EVERY, INGEST_APPEND_EVERY, INGEST_SNAPSHOT_EVERY = 2, 50, 100, 200


# --------------------------------------------------------------------------- #
# Sizing
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Sizing:
    """Operation counts and table sizes of one run.

    Counts are fixed per run (so program counts repeat exactly); they are
    derived from ``--seconds`` with rates calibrated on the 2-core reference
    container so that one timed pass lasts about that long.
    """

    learned_rows: int
    learned_train: int
    learned_queries: int
    exact_rows: int
    exact_queries: int
    http_rows: int
    http_train: int
    http_templates: int
    http_asks: int
    ingest_rows: int
    ingest_train: int
    ingest_records: int
    ingest_append_rows: int
    ingest_probes: int

    @classmethod
    def for_seconds(cls, seconds: float) -> "Sizing":
        return cls(
            learned_rows=100_000,
            learned_train=60,
            learned_queries=max(40, int(17 * seconds)),
            exact_rows=2_000_000,
            exact_queries=max(60, int(67 * seconds)),
            http_rows=100_000,
            http_train=10,
            http_templates=64,
            http_asks=max(400, int(1100 * seconds)),
            ingest_rows=100_000,
            ingest_train=20,
            ingest_records=max(40, int(17 * seconds)),
            ingest_append_rows=2_000,
            ingest_probes=20,
        )

    @classmethod
    def smoke(cls) -> "Sizing":
        return cls(
            learned_rows=8_000,
            learned_train=12,
            learned_queries=24,
            exact_rows=60_000,
            exact_queries=48,
            http_rows=6_000,
            http_train=6,
            http_templates=12,
            http_asks=120,
            ingest_rows=8_000,
            ingest_train=8,
            ingest_records=100,
            ingest_append_rows=200,
            ingest_probes=6,
        )


# --------------------------------------------------------------------------- #
# Query specs and flat data (read by the oracle only)
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class QuerySpec:
    """One query: the SQL the program gets, and its meaning for the oracle.

    ``filters`` are ``(column, op, value)`` with op in ``>= <= = in``;
    ``aggregates`` are ``(function, column-or-None)`` in select-list order.
    """

    sql: str
    template: str
    filters: tuple[tuple[str, str, object], ...]
    group_by: str | None
    aggregates: tuple[tuple[str, str | None], ...]


@dataclass
class FlatData:
    """Denormalised columns of a fact table, as the oracle wants them.

    Numeric columns are float/int arrays; categorical columns are integer
    codes plus their labels, so group-bys and equality filters never touch
    Python strings.
    """

    numeric: dict[str, np.ndarray]
    categorical: dict[str, tuple[np.ndarray, tuple[str, ...]]]

    @property
    def num_rows(self) -> int:
        return len(next(iter(self.numeric.values())))

    def appended(self, other: "FlatData") -> "FlatData":
        return FlatData(
            numeric={
                name: np.concatenate([values, other.numeric[name]])
                for name, values in self.numeric.items()
            },
            categorical={
                name: (np.concatenate([codes, other.categorical[name][0]]), labels)
                for name, (codes, labels) in self.categorical.items()
            },
        )


def _encode(values: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Object-array strings -> (integer codes, sorted labels)."""
    found, codes = np.unique(values.astype(str), return_inverse=True)
    return codes.astype(np.int64), tuple(str(label) for label in found)


def decode_codes(codes: np.ndarray, radices: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Mixed-radix digits (least significant first) of each code."""
    out = []
    for code in codes.tolist():
        digits = []
        for radix in radices:
            digits.append(code % radix)
            code //= radix
        out.append(tuple(digits))
    return out


def distinct_params(
    rng: np.random.Generator, radices: tuple[int, ...], count: int
) -> list[tuple[int, ...]]:
    """``count`` distinct parameter tuples from a mixed-radix space.

    Stratified: the code space is cut into ``count`` equal strata and one code
    is drawn from each, so the set covers the space evenly (the most
    significant digits -- range width, thresholds -- most of all).  Strata
    are disjoint, hence the codes are distinct.
    """
    space = math.prod(radices)
    if count > space:
        raise ValueError(f"{count} queries exceed the {space}-query template space")
    stride = space // count
    codes = stride * np.arange(count) + rng.integers(0, stride, size=count)
    return decode_codes(codes, radices)


def enumerate_queries(
    rng: np.random.Generator, templates, count: int
) -> list[QuerySpec]:
    """``count`` distinct queries in the templates' shares, evenly mixed.

    ``templates`` is a sequence of ``(share, radices, build)`` where
    ``build(digits) -> QuerySpec``.  Distinct digits give distinct SQL within
    a template, and templates differ in shape, so the whole list is distinct.
    Each template's queries are shuffled and placed at evenly spaced
    positions (a jitter breaks ties), so every stretch of the list -- and
    every slice taken for training or warm-up -- carries the same mix.
    """
    shares = np.array([share for share, _, _ in templates], dtype=float)
    counts = np.floor(shares / shares.sum() * count).astype(int)
    counts[0] += count - counts.sum()
    placed: list[tuple[float, QuerySpec]] = []
    for (_, radices, build), how_many in zip(templates, counts):
        positions = (np.arange(how_many) + rng.random(how_many)) / max(how_many, 1)
        params = distinct_params(rng, radices, int(how_many))
        order = rng.permutation(how_many)
        placed += [(position, build(params[i])) for position, i in zip(positions, order)]
    queries = [query for _, query in sorted(placed, key=lambda pair: pair[0])]
    if len({query.sql for query in queries}) != len(queries):
        raise ValueError("query enumeration produced duplicate SQL")
    return queries


#: The seed reorders the designed trace inside windows of this many queries.
SHUFFLE_WINDOW = 12


def shuffled_in_windows(rng: np.random.Generator, queries: list[QuerySpec]) -> list[QuerySpec]:
    """The designed order, shuffled inside consecutive windows.

    Cost per operation grows with the synopsis (2-4x over a pass), so where a
    query sits decides what it costs; moving it by less than a window keeps
    the pass's latency distribution while still giving each seed its own
    order of arrival.
    """
    out: list[QuerySpec] = []
    for start in range(0, len(queries), SHUFFLE_WINDOW):
        block = queries[start : start + SHUFFLE_WINDOW]
        out += [block[index] for index in rng.permutation(len(block))]
    return out


def trace_hash(*parts) -> str:
    """Short hash over SQL lists / arrays: identifies the generated inputs."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            digest.update(np.ascontiguousarray(part).tobytes())
        else:
            for query in part:
                digest.update(query.sql.encode())
                digest.update(b"\n")
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------------- #
# Customer1 (svc_learned, svc_ingest)
# --------------------------------------------------------------------------- #

_DAYS = 400
_START_RADIX, _WIDTH_RADIX, _MIN_WIDTH = 280, 106, 14


def _date_range(digits) -> tuple[int, int]:
    start = 1 + digits[0]
    return start, start + _MIN_WIDTH + digits[1]  # <= 400: never clamped


def _c1_count_range(d) -> QuerySpec:
    lo, hi = _date_range(d)
    return QuerySpec(
        f"SELECT COUNT(*) FROM sales WHERE date_key >= {lo} AND date_key <= {hi}",
        "count_range",
        (("date_key", ">=", lo), ("date_key", "<=", hi)),
        None,
        (("COUNT", None),),
    )


def _c1_avg_revenue(d) -> QuerySpec:
    lo, hi = _date_range(d)
    age = 20 + d[2]
    return QuerySpec(
        "SELECT AVG(revenue) FROM sales "
        f"WHERE date_key >= {lo} AND date_key <= {hi} AND customer_age >= {age}",
        "avg_revenue",
        (("date_key", ">=", lo), ("date_key", "<=", hi), ("customer_age", ">=", age)),
        None,
        (("AVG", "revenue"),),
    )


def _c1_sum_by_region(d) -> QuerySpec:
    lo, hi = _date_range(d)
    return QuerySpec(
        "SELECT region, SUM(revenue) FROM sales "
        "JOIN dim_store ON store_key = store_key "
        f"WHERE date_key >= {lo} AND date_key <= {hi} GROUP BY region",
        "sum_by_region",
        (("date_key", ">=", lo), ("date_key", "<=", hi)),
        "region",
        (("SUM", "revenue"),),
    )


def _c1_avg_price_by_category(d) -> QuerySpec:
    lo, hi = _date_range(d)
    return QuerySpec(
        "SELECT category, COUNT(*), AVG(price) FROM sales "
        "JOIN dim_product ON product_key = product_key "
        f"WHERE date_key >= {lo} AND date_key <= {hi} GROUP BY category",
        "avg_price_by_category",
        (("date_key", ">=", lo), ("date_key", "<=", hi)),
        "category",
        (("COUNT", None), ("AVG", "price")),
    )


def _c1_count_age(d) -> QuerySpec:
    lo, hi = _date_range(d)
    low_age = 18 + d[2]
    high_age = low_age + 5 + d[3]
    return QuerySpec(
        "SELECT COUNT(*), AVG(price) FROM sales "
        f"WHERE customer_age >= {low_age} AND customer_age <= {high_age} "
        f"AND date_key >= {lo} AND date_key <= {hi}",
        "count_age",
        (
            ("customer_age", ">=", low_age),
            ("customer_age", "<=", high_age),
            ("date_key", ">=", lo),
            ("date_key", "<=", hi),
        ),
        None,
        (("COUNT", None), ("AVG", "price")),
    )


#: The supported-class template mix of ``Customer1Workload`` (its own
#: generator draws parameters independently, hence the enumeration here).
CUSTOMER1_TEMPLATES = (
    (0.30, (_START_RADIX, _WIDTH_RADIX), _c1_count_range),
    (0.25, (_START_RADIX, _WIDTH_RADIX, 50), _c1_avg_revenue),
    (0.20, (_START_RADIX, _WIDTH_RADIX), _c1_sum_by_region),
    (0.15, (_START_RADIX, _WIDTH_RADIX), _c1_avg_price_by_category),
    (0.10, (_START_RADIX, _WIDTH_RADIX, 32, 20), _c1_count_age),
)


def customer1_catalog(rows: int, seed: int = DATA_SEED) -> Catalog:
    return Customer1Workload(num_rows=rows, num_days=_DAYS, seed=seed).build_catalog()


def customer1_flat(catalog: Catalog, fact: Table | None = None) -> FlatData:
    """The star schema flattened for the oracle (dimension attrs joined in)."""
    fact = fact if fact is not None else catalog.table("sales")
    store = catalog.table("dim_store")
    product = catalog.table("dim_product")
    region_codes, region_labels = _encode(store.column("region"))
    category_codes, category_labels = _encode(product.column("category"))
    return FlatData(
        numeric={
            name: fact.column(name)
            for name in ("date_key", "customer_age", "price", "quantity", "revenue")
        },
        categorical={
            # Dimension keys are 0..n-1 in key order, so a take is the join.
            "region": (region_codes[fact.column("store_key")], region_labels),
            "category": (category_codes[fact.column("product_key")], category_labels),
        },
    )


# --------------------------------------------------------------------------- #
# Sales (svc_exact builds its own clustered table; http_cached uses the CLI's)
# --------------------------------------------------------------------------- #

SALES_SCHEMA = Schema.of(
    [
        numeric_dimension("week", ColumnKind.INT),
        numeric_dimension("customer_age"),
        categorical_dimension("region"),
        categorical_dimension("category"),
        measure("price"),
        measure("quantity"),
        measure("discount"),
        measure("revenue"),
    ]
)
_REGIONS = tuple(f"region_{i}" for i in range(8))
_CATEGORIES = tuple(f"category_{i}" for i in range(12))
_EXACT_WEEKS = 104


def clustered_sales(rows: int) -> FlatData:
    """A sales fact table in append order: rows sorted by ``week``.

    Zone maps can prune a ``week`` range to a few partitions; every other
    column is independent of row position, so filters on them scan it all.
    """
    rng = np.random.default_rng(DATA_SEED)
    week = np.sort(rng.integers(1, _EXACT_WEEKS + 1, size=rows))
    region = rng.integers(0, len(_REGIONS), size=rows)
    category = rng.integers(0, len(_CATEGORIES), size=rows)
    seasonal = 100.0 + 30.0 * np.sin(week / 8.0)
    price = np.maximum(
        seasonal * (0.8 + 0.05 * region) * (0.9 + 0.02 * category)
        + rng.normal(0.0, 8.0, size=rows),
        1.0,
    )
    quantity = np.maximum(rng.poisson(3.0, size=rows), 1).astype(np.float64)
    discount = np.clip(rng.normal(0.05, 0.03, size=rows), 0.0, 0.5)
    return FlatData(
        numeric={
            "week": week.astype(np.int64),
            "customer_age": rng.uniform(18.0, 80.0, size=rows),
            "price": price,
            "quantity": quantity,
            "discount": discount,
            "revenue": price * quantity * (1.0 - discount),
        },
        categorical={"region": (region, _REGIONS), "category": (category, _CATEGORIES)},
    )


def sales_table(flat: FlatData) -> Table:
    """A fresh :class:`Table` over ``flat`` (fresh = no memoised scan state)."""
    columns = dict(flat.numeric)
    for name, (codes, labels) in flat.categorical.items():
        columns[name] = np.array(labels, dtype=object)[codes]
    return Table("sales", SALES_SCHEMA, columns)


def sales_flat(table: Table) -> FlatData:
    """Flatten a repo-built sales table (``make_sales_table``) for the oracle."""
    return FlatData(
        numeric={
            name: table.column(name)
            for name in ("week", "customer_age", "price", "quantity", "discount", "revenue")
        },
        categorical={
            "region": _encode(table.column("region")),
            "category": _encode(table.column("category")),
        },
    )


def _exact_templates():
    width = 8
    start = _EXACT_WEEKS - width

    def week_range(d) -> tuple[int, int]:
        return 1 + d[0], 1 + d[0] + d[1]  # at most start + width - 1 < weeks

    def by_region(d):
        lo, hi = week_range(d)
        return QuerySpec(
            "SELECT region, SUM(revenue), COUNT(*) FROM sales "
            f"WHERE week >= {lo} AND week <= {hi} GROUP BY region",
            "week_by_region",
            (("week", ">=", lo), ("week", "<=", hi)),
            "region",
            (("SUM", "revenue"), ("COUNT", None)),
        )

    def by_category(d):
        lo, hi = week_range(d)
        return QuerySpec(
            "SELECT category, AVG(price) FROM sales "
            f"WHERE week >= {lo} AND week <= {hi} GROUP BY category",
            "week_by_category",
            (("week", ">=", lo), ("week", "<=", hi)),
            "category",
            (("AVG", "price"),),
        )

    def week_region(d):
        lo, hi = week_range(d)
        region = _REGIONS[d[2]]
        return QuerySpec(
            "SELECT COUNT(*), AVG(revenue) FROM sales "
            f"WHERE week >= {lo} AND week <= {hi} AND region = '{region}'",
            "week_region",
            (("week", ">=", lo), ("week", "<=", hi), ("region", "=", region)),
            None,
            (("COUNT", None), ("AVG", "revenue")),
        )

    def age_by_category(d):
        lo = 18 + d[0]
        hi = lo + 2 + d[1]
        return QuerySpec(
            "SELECT category, AVG(price), COUNT(*) FROM sales "
            f"WHERE customer_age >= {lo} AND customer_age <= {hi} GROUP BY category",
            "age_by_category",
            (("customer_age", ">=", lo), ("customer_age", "<=", hi)),
            "category",
            (("AVG", "price"), ("COUNT", None)),
        )

    def region_age(d):
        region = _REGIONS[d[0]]
        age = 18 + d[1]
        return QuerySpec(
            "SELECT AVG(revenue) FROM sales "
            f"WHERE region = '{region}' AND customer_age >= {age}",
            "region_age",
            (("region", "=", region), ("customer_age", ">=", age)),
            None,
            (("AVG", "revenue"),),
        )

    def categories_by_region(d):
        first = d[0]
        second = (first + 1 + d[1]) % len(_CATEGORIES)
        age = 30 + d[2]
        pair = (_CATEGORIES[first], _CATEGORIES[second])
        return QuerySpec(
            "SELECT region, SUM(quantity) FROM sales "
            f"WHERE category IN ('{pair[0]}', '{pair[1]}') "
            f"AND customer_age <= {age} GROUP BY region",
            "categories_by_region",
            (("category", "in", pair), ("customer_age", "<=", age)),
            "region",
            (("SUM", "quantity"),),
        )

    # Half the trace filters on the clustered column, half cannot prune.
    return (
        (1 / 6, (start, width), by_region),
        (1 / 6, (start, width), by_category),
        (1 / 6, (start, width, len(_REGIONS)), week_region),
        (1 / 6, (40, 20), age_by_category),
        (1 / 6, (len(_REGIONS), 55), region_age),
        (1 / 6, (len(_CATEGORIES), len(_CATEGORIES) - 1, 50), categories_by_region),
    )


def _http_templates():
    """Templates over the 52-week table ``--workload sales`` serves."""

    def scalar(d):
        lo = 1 + d[0]
        hi = lo + 12 + d[1]
        function = ("AVG", "SUM", "COUNT")[d[2]]
        column = ("revenue", "price", "quantity")[d[3]]
        return QuerySpec(
            f"SELECT {function}({column}) FROM sales WHERE week >= {lo} AND week <= {hi}",
            "week_scalar",
            (("week", ">=", lo), ("week", "<=", hi)),
            None,
            ((function, column),),
        )

    def by_region(d):
        lo = 1 + d[0]
        hi = lo + 12 + d[1]
        column = ("revenue", "price", "quantity")[d[2]]
        return QuerySpec(
            f"SELECT region, AVG({column}), COUNT(*) FROM sales "
            f"WHERE week >= {lo} AND week <= {hi} GROUP BY region",
            "week_by_region",
            (("week", ">=", lo), ("week", "<=", hi)),
            "region",
            (("AVG", column), ("COUNT", None)),
        )

    # Latest range end is 1 + 29 + 12 + 8 = 50, inside the table's 52 weeks.
    return (
        (0.75, (30, 9, 3, 3), scalar),
        (0.25, (30, 9, 3), by_region),
    )


# --------------------------------------------------------------------------- #
# Inputs per workload
# --------------------------------------------------------------------------- #


@dataclass
class Inputs:
    """Everything one workload run needs, and the hash that names it."""

    workload: str
    sizing: Sizing
    train: list[QuerySpec] = field(default_factory=list)
    warm: list[QuerySpec] = field(default_factory=list)
    queries: list[QuerySpec] = field(default_factory=list)
    asks: list[QuerySpec] = field(default_factory=list)
    probes: list[QuerySpec] = field(default_factory=list)
    flat: FlatData | None = None
    append_seeds: list[int] = field(default_factory=list)
    hash: str = ""


def make_inputs(workload: str, seed: int, sizing: Sizing) -> Inputs:
    """One workload's inputs (same seed, same inputs).

    The distinct queries and their rough order are part of the fixed design,
    like the database: per-query cost spans ~50x across the parameter space
    and grows 2-4x along a pass, so a median over a few hundred independently
    drawn (or freely ordered) queries cannot repeat within any usable bound.
    ``--seed`` draws the trace from the design: the order of arrival inside
    short windows (:func:`shuffled_in_windows`) and, for ``http_cached``,
    which template each repeat asks for.
    """
    index = WORKLOADS.index(workload)
    design = np.random.default_rng([DATA_SEED, index])
    rng = np.random.default_rng([seed, index])
    inputs = Inputs(workload=workload, sizing=sizing)
    if workload == "svc_learned":
        total = sizing.learned_train + 4 + sizing.learned_queries
        queries = enumerate_queries(design, CUSTOMER1_TEMPLATES, total)
        inputs.train = queries[: sizing.learned_train]
        inputs.warm = queries[sizing.learned_train : sizing.learned_train + 4]
        inputs.queries = shuffled_in_windows(rng, queries[sizing.learned_train + 4 :])
        inputs.hash = trace_hash(inputs.train, inputs.queries)
    elif workload == "svc_exact":
        inputs.flat = clustered_sales(sizing.exact_rows)
        queries = enumerate_queries(design, _exact_templates(), 12 + sizing.exact_queries)
        inputs.warm, inputs.queries = queries[:12], shuffled_in_windows(rng, queries[12:])
        inputs.hash = trace_hash(inputs.queries, inputs.flat.numeric["revenue"])
    elif workload == "http_cached":
        total = sizing.http_train + sizing.http_templates
        queries = enumerate_queries(design, _http_templates(), total)
        inputs.train = queries[: sizing.http_train]
        inputs.queries = queries[sizing.http_train :]
        order = rng.integers(0, sizing.http_templates, size=sizing.http_asks)
        inputs.asks = [inputs.queries[position] for position in order]
        inputs.hash = trace_hash(queries, order)
    elif workload == "svc_ingest":
        asks = sizing.ingest_records // INGEST_ASK_EVERY
        total = sizing.ingest_train + sizing.ingest_records + asks + sizing.ingest_probes
        queries = enumerate_queries(design, CUSTOMER1_TEMPLATES, total)
        inputs.train, queries = queries[: sizing.ingest_train], queries[sizing.ingest_train :]
        inputs.queries = shuffled_in_windows(rng, queries[: sizing.ingest_records])
        inputs.asks = shuffled_in_windows(rng, queries[sizing.ingest_records : -sizing.ingest_probes])
        inputs.probes = queries[-sizing.ingest_probes :]
        inputs.append_seeds = [
            DATA_SEED + 1 + number
            for number in range(sizing.ingest_records // INGEST_APPEND_EVERY)
        ]
        inputs.hash = trace_hash(inputs.queries, inputs.asks)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def http_sales_table(rows: int) -> Table:
    """The table ``--seed DATA_SEED`` makes the server build for the tenant."""
    return make_sales_table(
        num_rows=rows, num_weeks=52, seed=tenant_seed(DATA_SEED, HTTP_TENANT)
    )
