"""One command for the stack benchmark.

The driver's form -- one workload, one mode, the result as the last line::

    python3 benchmarks/stack/run.py --workload svc_learned --seed 1 --seconds 10 --trace 0

``--trace 0`` sets the workload up (three times; ``setup_s`` is the median),
runs one timed pass with no tracing and prints the end-to-end metrics.
``--trace 1`` runs an untraced pass and then the same pass under the
outside-in span recorder (:mod:`spans`), checks that both made the same
program counts, writes ``results/trace-<workload>.jsonl`` and prints the
per-layer metrics.  Without ``--workload`` every workload runs; without
``--trace`` both modes run; ``--repeat N --out FILE`` feeds ``compare.py``.
More than one run means one child process per run, started as the driver
starts it.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the root of
the checkout; this program refuses to emit a set of names that differs.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

import metrics as metric_rules  # noqa: E402
from drivers import DRIVERS, Driver, PassResult  # noqa: E402
from server import make_scratch_dir, reset_peak_rss  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Inputs, Sizing, make_inputs  # noqa: E402

RESULTS_DIR = STACK_DIR / "results"
SETUP_REPEATS = 3


def load_benchmark() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _one_pass(inputs: Inputs, recorder: SpanRecorder | None) -> PassResult:
    """Fresh set-up, one timed pass, the off-clock check, teardown."""
    driver: Driver = DRIVERS[inputs.workload](inputs)
    reset_peak_rss()
    try:
        driver.setup(recorder)
        gc.collect()
        result = driver.run(recorder)
        driver.verify(result)
        return result
    finally:
        driver.close()


def run_untraced(inputs: Inputs) -> tuple[dict, PassResult, dict]:
    """``--trace 0``: median set-up time, then the end-to-end metrics."""
    setups = []
    for attempt in range(SETUP_REPEATS):
        driver = DRIVERS[inputs.workload](inputs)
        reset_peak_rss()
        try:
            started = time.perf_counter()
            driver.setup(None)
            setups.append(time.perf_counter() - started)
            if attempt == SETUP_REPEATS - 1:
                gc.collect()
                result = driver.run(None)
                driver.verify(result)
        finally:
            driver.close()
    values = metric_rules.end_to_end(result, statistics.median(setups))
    return values, result, {"setup_s_samples": setups}


def run_traced(inputs: Inputs) -> tuple[dict, PassResult, dict]:
    """``--trace 1``: untraced pass, traced pass, per-layer metrics."""
    untraced = _one_pass(inputs, None)
    recorder = SpanRecorder()
    recorder.install()
    try:
        traced = _one_pass(inputs, recorder)
    finally:
        recorder.uninstall()
    for span in sorted(set(recorder.missing)):
        print(f"warning: wrap point for {span} is gone; its metrics are not measured",
              file=sys.stderr)
    if traced.counts != untraced.counts:
        differing = {
            key: (untraced.counts.get(key), traced.counts.get(key))
            for key in untraced.counts.keys() | traced.counts.keys()
            if untraced.counts.get(key) != traced.counts.get(key)
        }
        traced.fail(f"program counts differ between passes: {differing}")
    traced.failed += untraced.failed
    traced.first_error = traced.first_error or untraced.first_error
    values = metric_rules.per_layer(untraced, traced, recorder)
    recorder.dump(RESULTS_DIR / f"trace-{inputs.workload}.jsonl")
    return values, traced, {"spans": len(recorder.spans)}


def run_one(workload: str, trace: int, seed: int, sizing: Sizing, benchmark: dict) -> dict:
    """One (workload, mode) run as a plain record; see ``--out``."""
    inputs = make_inputs(workload, seed, sizing)
    values, result, info = (run_traced if trace else run_untraced)(inputs)
    declared = benchmark["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(values):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json: {sorted(set(units) ^ set(values))}"
        )
    return {
        "workload": workload,
        "trace": trace,
        "seed": seed,
        "inputs": inputs.hash,
        "correct": result.failed == 0,
        "attempted": result.ops,
        "failed": result.failed,
        "first_error": result.first_error,
        "metrics": {name: values[name] for name in units},
        "units": units,
        "samples": metric_rules.sample_counts(result) | info,
        "counts": result.counts,
    }


def print_table(record: dict, benchmark: dict) -> None:
    mode = "per-layer (traced pass)" if record["trace"] else "end-to-end (tracing off)"
    print(f"\n== {record['workload']}  {mode}  seed={record['seed']}  "
          f"inputs={record['inputs']} ==")
    whys = {entry["name"]: entry["why"] for entry in benchmark["workloads"]}
    print(f"   {whys[record['workload']]}")
    samples = ", ".join(f"{key}={value}" for key, value in record["samples"].items())
    print(f"   samples: {samples}")
    print(f"   attempted={record['attempted']} failed={record['failed']} "
          f"correct={record['correct']}")
    if record["first_error"]:
        print(f"   first error: {record['first_error']}")
    width = max(len(name) for name in record["metrics"])
    for name, value in record["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"   {name:<{width}}  {shown:>12} {record['units'][name]}")
    counts = ", ".join(f"{key}={value}" for key, value in sorted(record["counts"].items()))
    print(f"   counts: {counts}")


def contract_line(record: dict) -> str:
    """The driver's last line.  A metric that was not measured reads 0."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": 0.0 if value is None else value, "unit": record["units"][name]}
                for name, value in record["metrics"].items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="length one timed pass is sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both modes")
    parser.add_argument("--smoke", action="store_true", help="tiny sizing, seconds in all")
    parser.add_argument("--repeat", type=int, default=1, help="run everything N times")
    parser.add_argument("--out", type=Path, help="write every run's record as JSON")
    args = parser.parse_args(argv)

    selected = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    plan = [(w, t) for _ in range(args.repeat) for w in selected for t in modes]
    if len(plan) == 1:
        sizing = Sizing.smoke() if args.smoke else Sizing.for_seconds(args.seconds)
        records = [run_one(*plan[0], args.seed, sizing, benchmark)]
        print_table(records[0], benchmark)
        print(contract_line(records[0]), flush=True)
    else:
        records = [run_in_child(workload, trace, args) for workload, trace in plan]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seconds": args.seconds, "smoke": args.smoke, "runs": records}, handle)
    return 0


def run_in_child(workload: str, trace: int, args: argparse.Namespace) -> dict:
    """One run in a process of its own, exactly as the driver starts it.

    A run that shares its process with earlier runs inherits their heap
    (peak RSS read 70 % high after a 2M-row workload) and their warm imports;
    the child prints its table and result line itself.
    """
    out = make_scratch_dir("run-") / "record.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--trace", str(trace),
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out),
    ]  # fmt: skip
    try:
        subprocess.run(command + (["--smoke"] if args.smoke else []), check=True)
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)["runs"][0]
    finally:
        shutil.rmtree(out.parent, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
