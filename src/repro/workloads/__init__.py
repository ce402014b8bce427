"""Data and query-trace generators for the experiments.

Each generator stands in for a dataset or workload the paper uses but that is
not available offline (see "Deviations from the paper" in docs/ARCHITECTURE.md):

* :mod:`repro.workloads.synthetic` -- controlled synthetic tables (uniform /
  Gaussian / skewed measures, smooth dependence on dimensions) used by the
  Figure 6 / 7 / 9 / 12 sensitivity experiments;
* :mod:`repro.workloads.powerlaw` -- query generators whose predicate columns
  follow a power-law access distribution (Figure 6a);
* :mod:`repro.workloads.customer1` -- a Customer1-like star schema and
  timestamped query trace (Tables 3-5, Figure 4);
* :mod:`repro.workloads.tpch` -- a TPC-H-like schema, data generator, and the
  22 query templates (Tables 3-4, Figure 4);
* :mod:`repro.workloads.ngram` -- a Twitter-n-gram-like weekly series
  (Figure 1 / Figure 8 illustrations);
* :mod:`repro.workloads.uci` -- synthetic "UCI-like" datasets and the
  adjacent-value correlation analysis (Figure 13).
"""

from repro.workloads.synthetic import (
    make_gp_snippets,
    make_sales_table,
    make_smooth_measure_table,
    make_synthetic_table,
)
from repro.workloads.powerlaw import PowerLawQueryGenerator
from repro.workloads.customer1 import Customer1Workload, TraceQuery
from repro.workloads.tpch import TPCHWorkload
from repro.workloads.ngram import make_ngram_table, ngram_range_query
from repro.workloads.uci import adjacent_correlations, make_uci_like_datasets

__all__ = [
    "make_sales_table",
    "make_synthetic_table",
    "make_smooth_measure_table",
    "make_gp_snippets",
    "PowerLawQueryGenerator",
    "Customer1Workload",
    "TraceQuery",
    "TPCHWorkload",
    "make_ngram_table",
    "ngram_range_query",
    "adjacent_correlations",
    "make_uci_like_datasets",
]
