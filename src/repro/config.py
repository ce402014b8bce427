"""Configuration objects for the Verdict engine and its substrates.

The defaults follow the paper:

* ``N_max`` = 1,000 -- the maximum number of snippets per incoming query for
  which improved answers are computed (Section 2.3).
* ``C_g`` = 2,000 -- the maximum number of past snippets retained per
  aggregate function, evicted least-recently-used (Section 2.3).
* model validation confidence ``delta_v`` = 0.99 (Appendix B).
* reported error bounds use 95% confidence intervals (Section 8.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class VerdictConfig:
    """Tunable parameters of the Verdict engine.

    Parameters
    ----------
    max_snippets_per_query:
        ``N_max`` in the paper; improved answers are computed for at most this
        many snippets of a single incoming query.
    max_snippets_per_aggregate:
        ``C_g`` in the paper; the query synopsis retains at most this many past
        snippets per aggregate function, using LRU replacement.
    confidence:
        Confidence level of every error *bound* reported to the user (the
        paper reports 95% bounds).  The one source of that level:
        :class:`~repro.serve.service.VerdictService` (served bounds and
        budget checks), :class:`~repro.serve.planner.QueryPlanner`
        (estimated route errors) and
        :class:`~repro.experiments.runner.ExperimentRunner` all read it.
    validation_confidence:
        ``delta_v`` in Appendix B; the model-based answer is rejected when the
        raw answer falls outside the likely region at this confidence.
    enable_model_validation:
        Turning this off reproduces the "without model validation" ablation of
        Figure 9.
    conservative_validation:
        When True, an accepted model-based error is additionally floored by
        the raw/model disagreement scaled by the likely-region multiplier (a
        conservative extension of Appendix B's validation, see
        :func:`repro.core.validation.validate_model_answer`).
    min_past_snippets:
        Inference is skipped (raw answers are passed through) until the
        synopsis holds at least this many snippets for the aggregate function.
    incremental_rebuild_ratio:
        The prepared Cholesky factorisation of each aggregate function is
        *extended* in O(n^2 k) when k snippets are appended to the synopsis
        (rank-k factor update, see :mod:`repro.core.linalg`); evictions,
        data-append adjustments and re-training trigger a full O(n^3)
        refactorisation.  The signal variance ``sigma_g^2`` and the diagonal
        jitter are frozen at their last full-factorisation values between
        rebuilds (the prior mean is refreshed on every extension).  A full
        refactorisation is also forced once the snippets appended since the
        last full factorisation exceed this fraction of its size, so the
        frozen ``sigma_g^2`` never drifts far from the analytic estimate.
    jitter:
        Diagonal jitter added to covariance matrices before inversion for
        numerical stability.
    calibrate_model_variance:
        When True (default) the model (GP) variance is inflated by the
        leave-one-out calibration factor computed from past snippets, so the
        reported confidence intervals stay honest even when the kernel cannot
        fully explain the past answers (see
        :class:`repro.core.inference.PreparedInference`).  Turning it off
        reproduces the uncalibrated analytic-sigma estimate of Appendix F.3.
    learn_length_scales:
        When False the engine keeps the default length-scale initialisation
        (the attribute domain width) instead of running the optimiser.
    max_learning_snippets:
        Cap on how many past snippets participate in length-scale learning
        (keeps the offline step cheap).
    learning_restarts:
        Number of random restarts for the non-convex likelihood maximisation.
    """

    max_snippets_per_query: int = 1_000
    max_snippets_per_aggregate: int = 2_000
    confidence: float = 0.95
    validation_confidence: float = 0.99
    enable_model_validation: bool = True
    conservative_validation: bool = True
    min_past_snippets: int = 1
    incremental_rebuild_ratio: float = 0.5
    jitter: float = 1e-9
    calibrate_model_variance: bool = True
    learn_length_scales: bool = True
    max_learning_snippets: int = 200
    learning_restarts: int = 2

    def __post_init__(self) -> None:
        if self.max_snippets_per_query <= 0:
            raise ValueError("max_snippets_per_query must be positive")
        if self.max_snippets_per_aggregate <= 0:
            raise ValueError("max_snippets_per_aggregate must be positive")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not 0.0 < self.validation_confidence < 1.0:
            raise ValueError("validation_confidence must be in (0, 1)")
        if self.jitter < 0.0:
            raise ValueError("jitter must be non-negative")
        if self.min_past_snippets < 0:
            raise ValueError("min_past_snippets must be non-negative")
        if self.incremental_rebuild_ratio <= 0.0:
            raise ValueError("incremental_rebuild_ratio must be positive")

    def with_options(self, **changes: Any) -> "VerdictConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class CostModelConfig:
    """Deterministic cost model standing in for the paper's Spark cluster.

    The paper runs on a 5-node Spark SQL cluster and reports two storage
    settings: samples fully cached in memory and samples read from SSD-backed
    HDFS.  The reproduction replaces wall-clock measurement on that cluster
    with an explicit cost model: a fixed per-query planning overhead plus a
    per-row scan cost that differs between the cached and SSD settings.  All
    "runtimes" reported by the benchmarks are in *model seconds* computed from
    these rates, which keeps every experiment deterministic and
    laptop-friendly while preserving the relationships the paper measures
    (time grows linearly in rows scanned; planning overhead matters more when
    scans are cheap).

    The default rates are calibrated so that the NoLearn latencies of Table 5
    (about 2 s cached and 52 s on SSD for a full Customer1 sample scan) are
    matched at the reproduction's default workload scale.
    """

    planning_overhead_s: float = 0.35
    cached_seconds_per_row: float = 1.0e-6
    ssd_seconds_per_row: float = 2.6e-5
    unsampled_table_scan_penalty_s: float = 0.0
    cached: bool = True

    def __post_init__(self) -> None:
        if self.planning_overhead_s < 0:
            raise ValueError("planning_overhead_s must be non-negative")
        if self.cached_seconds_per_row <= 0 or self.ssd_seconds_per_row <= 0:
            raise ValueError("per-row scan costs must be positive")

    @property
    def seconds_per_row(self) -> float:
        """Per-row scan cost under the configured storage setting."""
        if self.cached:
            return self.cached_seconds_per_row
        return self.ssd_seconds_per_row

    def scan_seconds(self, rows: int) -> float:
        """Model seconds needed to scan ``rows`` rows (excluding planning)."""
        if rows < 0:
            raise ValueError("rows must be non-negative")
        return rows * self.seconds_per_row

    def query_seconds(self, rows: int, unsampled_penalty: bool = False) -> float:
        """Total model seconds for a query scanning ``rows`` sampled rows."""
        total = self.planning_overhead_s + self.scan_seconds(rows)
        if unsampled_penalty:
            total += self.unsampled_table_scan_penalty_s
        return total

    def with_options(self, **changes: Any) -> "CostModelConfig":
        """Return a copy of this configuration with the given fields replaced."""
        return replace(self, **changes)

    @classmethod
    def scaled_for(
        cls,
        sample_rows: int,
        cached: bool = True,
        cached_full_scan_s: float = 2.0,
        ssd_full_scan_s: float = 52.0,
        planning_overhead_s: float = 0.35,
        unsampled_table_scan_penalty_s: float = 0.0,
    ) -> "CostModelConfig":
        """Cost model whose full-sample scan time matches the paper's scale.

        The reproduction's tables are orders of magnitude smaller than the
        paper's 536 GB / 100 GB datasets, so per-row costs are rescaled such
        that scanning ``sample_rows`` rows takes ``cached_full_scan_s`` model
        seconds in the cached setting and ``ssd_full_scan_s`` on SSD --
        roughly the NoLearn latencies of Table 5.  This keeps the *shape* of
        the runtime-vs-error trade-off (and hence speedups) comparable even
        though the absolute data sizes are not.
        """
        if sample_rows <= 0:
            raise ValueError("sample_rows must be positive")
        return cls(
            planning_overhead_s=planning_overhead_s,
            cached_seconds_per_row=cached_full_scan_s / sample_rows,
            ssd_seconds_per_row=ssd_full_scan_s / sample_rows,
            unsampled_table_scan_penalty_s=unsampled_table_scan_penalty_s,
            cached=cached,
        )


@dataclass(frozen=True)
class SamplingConfig:
    """Configuration of the offline samples used by the AQP engines.

    ``sample_ratio`` is the fraction of the fact table kept in the offline
    uniform sample (the paper's time-bound experiments use 10%); the online
    aggregation engine further splits the sample into ``num_batches`` batches
    processed incrementally.
    """

    sample_ratio: float = 0.1
    num_batches: int = 20
    seed: int = 7

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_ratio <= 1.0:
            raise ValueError("sample_ratio must be in (0, 1]")
        if self.num_batches <= 0:
            raise ValueError("num_batches must be positive")

    def with_options(self, **changes: Any) -> "SamplingConfig":
        return replace(self, **changes)


DEFAULT_CONFIG = VerdictConfig()
DEFAULT_COST_MODEL = CostModelConfig()
DEFAULT_SAMPLING = SamplingConfig()
