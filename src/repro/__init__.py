"""repro -- a reproduction of "Database Learning: Toward a Database that
Becomes Smarter Every Time" (Park, Tajik, Cafarella, Mozafari; SIGMOD 2017).

The package provides:

* ``repro.core`` -- the Verdict database-learning engine (query snippets,
  query synopsis, maximum-entropy inference, parameter learning, model
  validation, data-append handling);
* ``repro.db`` -- the columnar database substrate (tables, catalog, exact
  executor, sampling, IO cost model) standing in for the paper's Spark SQL
  cluster;
* ``repro.aqp`` -- the approximate query processing engines Verdict sits on
  top of (online aggregation, time-bound, answer caching baseline);
* ``repro.sqlparser`` -- the SQL subset parser, supported-query checker, and
  snippet decomposition;
* ``repro.workloads`` -- synthetic data and query-trace generators standing in
  for the paper's Customer1, TPC-H, Twitter n-gram, and UCI datasets;
* ``repro.experiments`` -- the harness that reruns the paper's experiments and
  reports the same tables and figures.

Quickstart::

    from repro import quickstart_catalog, VerdictEngine, OnlineAggregationEngine

    catalog, fact = quickstart_catalog()
    aqp = OnlineAggregationEngine(catalog)
    verdict = VerdictEngine(catalog, aqp)
    answers = verdict.execute("SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 20")
    print(answers[-1].scalar_estimate())
"""

from repro.exports import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, _exported = lazy_exports(
    __name__,
    {
        "repro.config": ("VerdictConfig", "CostModelConfig", "SamplingConfig"),
        "repro.errors": (
            "ReproError",
            "SchemaError",
            "TableError",
            "CatalogError",
            "ExpressionError",
            "SQLSyntaxError",
            "UnsupportedQueryError",
            "AQPError",
            "InferenceError",
            "LearningError",
            "SynopsisError",
        ),
        "repro.db": (
            "Catalog",
            "Column",
            "ColumnKind",
            "ColumnRole",
            "Schema",
            "Table",
            "ExactExecutor",
        ),
        "repro.aqp": ("OnlineAggregationEngine", "TimeBoundEngine", "CachingEngine"),
        "repro.core": (
            "VerdictEngine",
            "VerdictAnswer",
            "QuerySynopsis",
            "Snippet",
            "SnippetKey",
            "AggregateKind",
            "AttributeDomains",
        ),
        "repro.sqlparser": ("parse_query", "QueryTypeChecker"),
        "repro.serve": (
            "QueryPlanner",
            "Route",
            "ServedAnswer",
            "ServiceBudget",
            "ServiceMetrics",
            "SynopsisStore",
            "VerdictService",
        ),
    },
)

__all__ = [*_exported, "quickstart_catalog"]


def quickstart_catalog(num_rows: int = 20_000, seed: int = 0):
    """A small ready-made sales table for the README / quickstart example.

    Returns ``(catalog, fact_table_name)``.
    """
    from repro.db.catalog import Catalog
    from repro.workloads.synthetic import make_sales_table

    table = make_sales_table(num_rows=num_rows, seed=seed)
    catalog = Catalog()
    catalog.add_table(table, fact=True)
    return catalog, table.name
