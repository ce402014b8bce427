"""Batched vs scalar inference, and incremental vs full refactorisation.

Backs the batched/incremental inference refactor: all cells of a group-by
answer sharing one aggregate function are conditioned in a single blocked
matrix solve (``inference.batched``), and recording new snippets extends the
prepared Cholesky factor in O(n^2 k) instead of re-running the O(n^3)
factorisation.  The measured speedups across synopsis sizes are emitted as
JSON under ``benchmarks/results/batched_inference.txt`` via
:func:`benchmarks.common.emit`.

Run with:  pytest benchmarks/bench_batched_inference.py -q
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from benchmarks.common import emit
from repro.config import VerdictConfig
from repro.core.covariance import AggregateModel
from repro.core.inference import GaussianInference
from repro.core.regions import AttributeDomains, NumericDomain, NumericRange, Region
from repro.core.snippet import AggregateKind, Snippet, SnippetKey

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
DOMAINS = AttributeDomains(numeric={"x": NumericDomain("x", 0.0, 100.0, 0.1)})
MODEL = AggregateModel(key=KEY, length_scales={"x": 25.0})

GROUP_BY_CELLS = 64
SYNOPSIS_SIZES = (64, 128, 256)
APPEND_BATCH = 16
REPEATS = 5


def make_snippets(count: int, seed: int, error: float = 0.5) -> list[Snippet]:
    rng = np.random.default_rng(seed)
    snippets = []
    for _ in range(count):
        low = float(rng.uniform(0, 90))
        high = float(min(low + rng.uniform(2, 25), 100.0))
        center = 0.5 * (low + high)
        answer = float(10.0 + 0.1 * center + rng.normal(0, 0.3))
        region = Region(numeric_ranges=(NumericRange("x", low, high),))
        snippets.append(Snippet(key=KEY, region=region, raw_answer=answer, raw_error=error))
    return snippets


def best_of(repeats: int, function, *args):
    """Minimum wall-clock seconds of ``repeats`` calls (returns last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_batched_vs_scalar_and_incremental_vs_full():
    inference = GaussianInference(VerdictConfig())
    cells = make_snippets(GROUP_BY_CELLS, seed=100, error=0.8)

    batched_rows = []
    for size in SYNOPSIS_SIZES:
        past = make_snippets(size, seed=size)
        prepared = inference.prepare(KEY, past, MODEL, DOMAINS)

        # Both paths start from an empty posterior memo, so each timing is
        # the cost of conditioning cells the model has not seen.
        def scalar_path():
            prepared.posterior_memo.clear()
            return [inference.infer(prepared, cell) for cell in cells]

        def batched_path():
            prepared.posterior_memo.clear()
            return inference.infer_batch(prepared, cells)

        scalar_seconds, scalar_results = best_of(REPEATS, scalar_path)
        batched_seconds, batched_results = best_of(REPEATS, batched_path)
        for scalar_result, batched_result in zip(scalar_results, batched_results):
            assert batched_result.model_answer == pytest.approx(
                scalar_result.model_answer, rel=1e-8, abs=1e-10
            )
        batched_rows.append(
            {
                "synopsis_size": size,
                "cells": GROUP_BY_CELLS,
                "scalar_seconds": scalar_seconds,
                "batched_seconds": batched_seconds,
                "speedup": scalar_seconds / max(batched_seconds, 1e-12),
            }
        )

    incremental_rows = []
    for size in SYNOPSIS_SIZES:
        base = make_snippets(size, seed=size + 1)
        appended = make_snippets(APPEND_BATCH, seed=size + 2)
        prepared = inference.prepare(KEY, base, MODEL, DOMAINS)

        def full_rebuild():
            return inference.prepare(KEY, base + appended, MODEL, DOMAINS)

        def incremental():
            return inference.extend(prepared, appended)

        full_seconds, _ = best_of(REPEATS, full_rebuild)
        incremental_seconds, extended = best_of(REPEATS, incremental)
        assert extended is not None and extended.size == size + APPEND_BATCH
        incremental_rows.append(
            {
                "base_size": size,
                "appended": APPEND_BATCH,
                "full_refactorisation_seconds": full_seconds,
                "incremental_seconds": incremental_seconds,
                "speedup": full_seconds / max(incremental_seconds, 1e-12),
            }
        )

    payload = {
        "benchmark": "batched_inference",
        "description": (
            "Batched group-by inference (one blocked cho_solve for all cells) vs "
            "the legacy per-cell scalar path, and rank-k Cholesky extension vs a "
            "from-scratch refactorisation when snippets are appended."
        ),
        "batched_vs_scalar": batched_rows,
        "incremental_vs_full": incremental_rows,
    }
    emit("batched_inference", json.dumps(payload, indent=2))

    # The acceptance bar: batched inference must be measurably faster than the
    # scalar loop on a >= 64-cell group-by workload.
    for row in batched_rows:
        assert row["speedup"] > 1.0, row
