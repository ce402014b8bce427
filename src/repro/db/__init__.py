"""In-memory columnar database substrate.

This subpackage stands in for the Spark SQL cluster used in the paper.  It
provides:

* :mod:`repro.db.schema` -- column types and table schemas,
* :mod:`repro.db.table` -- NumPy-backed columnar tables with append support,
* :mod:`repro.db.catalog` -- a database of named tables with fact/dimension
  metadata and foreign-key denormalisation,
* :mod:`repro.db.expressions` -- evaluation of predicates and derived
  attributes against columns,
* :mod:`repro.db.executor` -- an exact query executor used both as the ground
  truth for experiments and as the evaluation engine underneath the sampling
  based AQP engines,
* :mod:`repro.db.sampling` -- offline uniform samples and batch splitting for
  online aggregation.

The deterministic cost model that replaces wall-clock measurements on the
paper's cluster is :class:`repro.config.CostModelConfig`.
"""

from repro.db.schema import Column, ColumnKind, ColumnRole, Schema
from repro.db.table import Table
from repro.db.catalog import Catalog, ForeignKey
from repro.db.executor import ExactExecutor, QueryResult, ResultRow
from repro.db.sampling import SampleStore, TableSample

__all__ = [
    "Column",
    "ColumnKind",
    "ColumnRole",
    "Schema",
    "Table",
    "Catalog",
    "ForeignKey",
    "ExactExecutor",
    "QueryResult",
    "ResultRow",
    "SampleStore",
    "TableSample",
]
