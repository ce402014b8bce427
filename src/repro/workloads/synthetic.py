"""Controlled synthetic tables and snippet generators.

These generators replace the paper's large-scale synthetic datasets
(Section 8.6) with laptop-sized equivalents that preserve the property DBL
exploits: measure attributes vary *smoothly* with dimension attributes, so
inter-tuple covariances are non-zero and answers to overlapping or nearby
ranges are correlated.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from repro.core.regions import AttributeDomains, NumericDomain, NumericRange, Region
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.db.schema import (
    Column,
    ColumnKind,
    Schema,
    categorical_dimension,
    measure,
    numeric_dimension,
)
from repro.db.table import Table

Distribution = Literal["uniform", "gaussian", "skewed"]


def _smooth_signal(
    positions: np.ndarray, rng: np.random.Generator, length_scale: float, amplitude: float
) -> np.ndarray:
    """A smooth random function of ``positions`` with correlation length
    ``length_scale``: a sum of randomly-placed squared-exponential bumps."""
    span = positions.max() - positions.min() if len(positions) else 1.0
    span = span if span > 0 else 1.0
    num_bumps = max(4, int(4 * span / max(length_scale, 1e-6)))
    num_bumps = min(num_bumps, 200)
    centers = rng.uniform(positions.min(), positions.max(), size=num_bumps)
    weights = rng.normal(0.0, amplitude / math.sqrt(num_bumps), size=num_bumps)
    signal = np.zeros_like(positions, dtype=np.float64)
    for center, weight in zip(centers, weights):
        signal += weight * np.exp(-np.square((positions - center) / length_scale))
    return signal


def make_sales_table(
    num_rows: int = 20_000,
    num_weeks: int = 104,
    num_regions: int = 8,
    num_categories: int = 12,
    seed: int = 0,
    name: str = "sales",
) -> Table:
    """A denormalised sales fact table used by the quickstart and many tests.

    ``revenue`` and ``price`` vary smoothly with ``week`` (seasonality) and
    carry per-region / per-category multipliers, so past query answers carry
    information about overlapping and nearby ranges.
    """
    rng = np.random.default_rng(seed)
    weeks = rng.integers(1, num_weeks + 1, size=num_rows).astype(np.float64)
    ages = rng.uniform(18, 80, size=num_rows)
    regions = np.array([f"region_{i}" for i in rng.integers(0, num_regions, size=num_rows)], dtype=object)
    categories = np.array(
        [f"category_{i}" for i in rng.integers(0, num_categories, size=num_rows)], dtype=object
    )

    seasonal = 100.0 + _smooth_signal(weeks, rng, length_scale=num_weeks / 8.0, amplitude=40.0)
    region_multiplier = {f"region_{i}": 0.8 + 0.05 * i for i in range(num_regions)}
    category_multiplier = {f"category_{i}": 0.9 + 0.02 * i for i in range(num_categories)}
    multipliers = np.array(
        [region_multiplier[r] * category_multiplier[c] for r, c in zip(regions, categories)]
    )
    price = np.maximum(seasonal * multipliers + rng.normal(0, 8.0, size=num_rows), 1.0)
    quantity = np.maximum(rng.poisson(3.0, size=num_rows), 1).astype(np.float64)
    discount = np.clip(rng.normal(0.05, 0.03, size=num_rows), 0.0, 0.5)
    revenue = price * quantity * (1.0 - discount)

    schema = Schema.of(
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
    return Table(
        name,
        schema,
        {
            "week": weeks.astype(np.int64),
            "customer_age": ages,
            "region": regions,
            "category": categories,
            "price": price,
            "quantity": quantity,
            "discount": discount,
            "revenue": revenue,
        },
    )


def make_synthetic_table(
    num_rows: int = 50_000,
    num_columns: int = 50,
    categorical_fraction: float = 0.1,
    distribution: Distribution = "uniform",
    smoothness: float = 2.0,
    seed: int = 0,
    name: str = "synthetic",
) -> Table:
    """The Figure 6 style table: many dimension columns plus one measure.

    Numeric dimension columns take real values in [0, 10]; categorical columns
    take integer values in [0, 100).  The measure depends smoothly (with
    correlation length ``smoothness``) on the first few numeric dimensions and
    its marginal follows ``distribution`` (uniform / gaussian / skewed
    log-normal), matching the Section 8.6 setups.
    """
    if num_columns < 2:
        raise ValueError("num_columns must be at least 2")
    rng = np.random.default_rng(seed)
    num_categorical = int(round(num_columns * categorical_fraction))
    num_numeric = num_columns - num_categorical

    columns: dict[str, np.ndarray] = {}
    schema_columns: list[Column] = []
    numeric_names = [f"d{i:02d}" for i in range(num_numeric)]
    categorical_names = [f"c{i:02d}" for i in range(num_categorical)]
    for column_name in numeric_names:
        columns[column_name] = rng.uniform(0.0, 10.0, size=num_rows)
        schema_columns.append(numeric_dimension(column_name))
    for column_name in categorical_names:
        columns[column_name] = np.array(
            [f"v{value}" for value in rng.integers(0, 100, size=num_rows)], dtype=object
        )
        schema_columns.append(categorical_dimension(column_name))

    # The measure varies smoothly with the first (up to) three numeric dims.
    base = np.zeros(num_rows, dtype=np.float64)
    for column_name in numeric_names[: min(3, num_numeric)]:
        base += _smooth_signal(columns[column_name], rng, length_scale=smoothness, amplitude=5.0)
    if distribution == "uniform":
        noise = rng.uniform(-1.0, 1.0, size=num_rows)
        values = 50.0 + base + noise
    elif distribution == "gaussian":
        noise = rng.normal(0.0, 1.0, size=num_rows)
        values = 50.0 + base + noise
    elif distribution == "skewed":
        # A heavy-tailed (log-normal) additive component dominates the smooth
        # signal so the marginal is clearly right-skewed.
        noise = 3.0 * rng.lognormal(mean=0.0, sigma=1.0, size=num_rows)
        values = 50.0 + base + noise
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    columns["measure"] = values
    schema_columns.append(measure("measure"))
    return Table(name, Schema.of(schema_columns), columns)


def make_smooth_measure_table(
    num_rows: int = 20_000,
    length_scale: float = 1.0,
    domain_high: float = 10.0,
    noise_std: float = 0.5,
    amplitude: float = 5.0,
    seed: int = 0,
    name: str = "smooth",
) -> Table:
    """A single-dimension table whose measure has a known correlation length.

    Used by the parameter-learning (Figure 7) and model-validation (Figure 9)
    experiments, which need ground-truth correlation parameters.
    """
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, domain_high, size=num_rows)
    signal = _smooth_signal(positions, rng, length_scale=length_scale, amplitude=amplitude)
    values = 10.0 + signal + rng.normal(0.0, noise_std, size=num_rows)
    schema = Schema.of([numeric_dimension("x"), measure("y")])
    return Table(name, schema, {"x": positions, "y": values})


def make_gp_snippets(
    num_snippets: int,
    true_length_scale: float,
    domain: tuple[float, float] = (0.0, 10.0),
    signal_std: float = 2.0,
    noise_std: float = 0.2,
    mean: float = 10.0,
    range_width: tuple[float, float] = (0.5, 3.0),
    seed: int = 0,
    table: str = "gp",
    attribute: str = "y",
) -> tuple[list[Snippet], AttributeDomains, SnippetKey]:
    """Snippet answers sampled exactly from the paper's covariance model.

    The snippets' exact answers are drawn from a multivariate normal whose
    covariance is the normalised squared-exponential range covariance with a
    *known* length scale, and observation noise of ``noise_std`` is added.
    This is the cleanest way to test whether parameter learning recovers the
    true correlation parameter (Figure 7) and to study what happens when
    deliberately mis-scaled parameters are used (Figure 9).
    """
    from repro.core.covariance import AggregateModel, SnippetCovariance

    rng = np.random.default_rng(seed)
    low, high = domain
    key = SnippetKey(kind=AggregateKind.AVG, table=table, attribute=attribute)
    domains = AttributeDomains(
        numeric={
            "x": NumericDomain(
                name="x", low=low, high=high, resolution=(high - low) / 1000.0
            )
        }
    )
    snippets: list[Snippet] = []
    for _ in range(num_snippets):
        width = rng.uniform(*range_width)
        start = rng.uniform(low, high - width)
        region = Region(numeric_ranges=(NumericRange("x", start, start + width),))
        snippets.append(
            Snippet(key=key, region=region, raw_answer=0.0, raw_error=noise_std)
        )

    model = AggregateModel(key=key, length_scales={"x": true_length_scale})
    covariance = SnippetCovariance(domains, model)
    factors = covariance.factor_matrix(snippets)
    matrix = (signal_std**2) * factors
    matrix[np.diag_indices_from(matrix)] += 1e-9
    exact = rng.multivariate_normal(np.full(num_snippets, mean), matrix)
    observed = exact + rng.normal(0.0, noise_std, size=num_snippets)
    snippets = [
        Snippet(
            key=snippet.key,
            region=snippet.region,
            raw_answer=float(value),
            raw_error=noise_std,
        )
        for snippet, value in zip(snippets, observed)
    ]
    return snippets, domains, key


def make_gp_snippets_multi(
    num_snippets: int,
    true_length_scales: dict[str, float],
    domain: tuple[float, float] = (0.0, 10.0),
    signal_std: float = 2.0,
    noise_std: float = 0.2,
    mean: float = 10.0,
    range_width: tuple[float, float] = (0.5, 3.0),
    distinct_ranges_per_attribute: int = 15,
    categorical_sizes: dict[str, int] | None = None,
    seed: int = 0,
    table: str = "gp",
    attribute: str = "y",
) -> tuple[list[Snippet], AttributeDomains, SnippetKey]:
    """Multi-attribute variant of :func:`make_gp_snippets`.

    Every snippet constrains each of the ``len(true_length_scales)`` numeric
    attributes with a range drawn from a small per-attribute pool of
    ``distinct_ranges_per_attribute`` distinct ranges -- real traces reuse a
    handful of predicate ranges, which is the structure both the learning
    workspace and the covariance layer deduplicate on.  When
    ``categorical_sizes`` maps attribute names to domain sizes, each snippet
    additionally constrains those categorical attributes with a small random
    value set (the Customer1-style mixed-schema case; their factors do not
    depend on the length scales, so the learning workspace precomputes
    them).  Exact answers are drawn from the separable product-kernel
    covariance with the *known* per-attribute length scales, so parameter
    learning has a ground truth to recover (``tests/core/test_learning.py``,
    ``tests/property/test_learning_gradients.py``).
    """
    from repro.core.covariance import AggregateModel, SnippetCovariance
    from repro.core.regions import CategoricalConstraint, CategoricalDomain

    rng = np.random.default_rng(seed)
    low, high = domain
    names = sorted(true_length_scales)
    categorical_sizes = dict(categorical_sizes or {})
    key = SnippetKey(kind=AggregateKind.AVG, table=table, attribute=attribute)
    domains = AttributeDomains(
        numeric={
            name: NumericDomain(
                name=name, low=low, high=high, resolution=(high - low) / 1000.0
            )
            for name in names
        },
        categorical={
            name: CategoricalDomain(name=name, size=size)
            for name, size in categorical_sizes.items()
        },
    )
    pools: dict[str, list[NumericRange]] = {}
    for name in names:
        pool = []
        for _ in range(max(distinct_ranges_per_attribute, 1)):
            width = rng.uniform(*range_width)
            start = rng.uniform(low, high - width)
            pool.append(NumericRange(name, start, start + width))
        pools[name] = pool
    snippets: list[Snippet] = []
    for _ in range(num_snippets):
        ranges = tuple(
            pools[name][rng.integers(0, len(pools[name]))] for name in names
        )
        constraints = []
        for name in sorted(categorical_sizes):
            size = categorical_sizes[name]
            chosen = rng.choice(size, size=rng.integers(1, max(size // 2, 2)), replace=False)
            constraints.append(
                CategoricalConstraint(
                    name=name,
                    values=frozenset(f"{name}_{i}" for i in chosen),
                    domain_size=size,
                )
            )
        region = Region(
            numeric_ranges=ranges, categorical_constraints=tuple(constraints)
        )
        snippets.append(
            Snippet(key=key, region=region, raw_answer=0.0, raw_error=noise_std)
        )

    model = AggregateModel(key=key, length_scales=dict(true_length_scales))
    covariance = SnippetCovariance(domains, model)
    factors = covariance.factor_matrix(snippets)
    matrix = (signal_std**2) * factors
    matrix[np.diag_indices_from(matrix)] += 1e-9
    exact = rng.multivariate_normal(np.full(num_snippets, mean), matrix)
    observed = exact + rng.normal(0.0, noise_std, size=num_snippets)
    return (
        [
            Snippet(
                key=snippet.key,
                region=snippet.region,
                raw_answer=float(value),
                raw_error=noise_std,
            )
            for snippet, value in zip(snippets, observed)
        ],
        domains,
        key,
    )
