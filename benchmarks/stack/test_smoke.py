"""Smoke test of the stack benchmark (run by explicit path, not tier-1)::

    python -m pytest benchmarks/stack/test_smoke.py -q

Runs every workload in both modes at ``--smoke`` sizing and checks the
contract: every name in ``BENCHMARK.json`` is emitted with its unit, names are
well-formed, the traced and untraced passes made the same program counts, and
nothing failed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def declared() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[dict, str]:
    out = tmp_path_factory.mktemp("stack") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(STACK_DIR / "run.py"), "--smoke", "--seed", "3", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_names_are_well_formed_and_unique(declared):
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in declared[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert declared["paths"] == ["benchmarks/stack"]


def test_every_declared_metric_is_emitted_with_its_unit(declared, smoke):
    document, _ = smoke
    seen = {(run["workload"], run["trace"]) for run in document["runs"]}
    assert seen == {(w["name"], t) for w in declared["workloads"] for t in (0, 1)}
    for run in document["runs"]:
        group = declared["per_layer" if run["trace"] else "end_to_end"]
        assert run["units"] == {entry["name"]: entry["unit"] for entry in group}
        assert set(run["metrics"]) == set(run["units"])
        if not run["trace"]:
            assert all(value for value in run["metrics"].values()), run["metrics"]


def test_nothing_fails_and_both_passes_count_alike(smoke):
    document, _ = smoke
    for run in document["runs"]:
        # A count mismatch between the traced and untraced pass is a failure.
        assert run["correct"] and run["failed"] == 0, run["first_error"]
        assert run["attempted"] >= 1
        if run["trace"]:
            assert run["metrics"]["fail_ratio"] == 0
            assert run["metrics"]["bench.trace_overhead_ratio"] > 0


def test_last_line_is_the_contract_object(smoke):
    _, stdout = smoke
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(entry) == {"value", "unit"} for entry in last["metrics"].values())
