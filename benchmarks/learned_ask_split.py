"""Where a learned ask's time goes, from the service's own trace.

    PYTHONPATH=src python benchmarks/learned_ask_split.py [--seed 5] [--seconds 12]
    PYTHONPATH=src python benchmarks/learned_ask_split.py --smoke   # tiny, checks every stage prints

Sets up the ``svc_learned`` workload of ``benchmarks/stack`` (same inputs,
same service defaults, same interactive budget) and asks every query with
``record=True``, as the stack benchmark's ``SvcLearned`` does, each under a
root trace span of the service's tracer (``repro.obs.trace``).  It then
prints, over the middle third of the asks:

1. the per-ask split across the spans the service opens itself
   (``cache.lookup``, ``plan``, ``route.<name>`` with its ``scan`` and
   ``inference`` children, ``record``) and the untraced rest of the ask;
2. the covariance kernel's entry points per ask (``SnippetCovariance``'s
   ``layout`` and ``factor_matrix``, and ``RegionLayout.appended``; an ask
   reads its prior variances off the corner of its one block, so there is
   no diagonal call): their call counts from a second, identical pass run
   under ``cProfile``, times the warm per-call costs of part 3, and the
   profiler's own cumulative time (an upper bound: the profiler charges
   every Python call inside them);
3. warm per-call kernel timings on every prepared model the middle third
   started from (the engine state of the pass): the cross block of one
   fresh region against the past snippets, its 1x1 corner, the ask's one
   block (past snippets and the region against the region), laying one
   region out, and appending it to the past layout.

Nothing is monkeypatched and no timing is gated; ``--smoke`` exits non-zero
only when a stage it should print has no samples.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks" / "stack"))
sys.path.insert(0, str(REPO_ROOT / "src"))

import workloads  # noqa: E402
from drivers import INTERACTIVE  # noqa: E402

from repro.core.covariance import RegionLayout, SnippetCovariance  # noqa: E402
from repro.core.inference import PreparedInference  # noqa: E402
from repro.obs.trace import Span  # noqa: E402
from repro.serve.service import VerdictService  # noqa: E402

#: The kernel's entry points, as ``(owner, method)``.
ENTRY_POINTS = (
    (SnippetCovariance, "layout"),
    (SnippetCovariance, "factor_matrix"),
    (RegionLayout, "appended"),
)


def make_service(inputs: workloads.Inputs) -> VerdictService:
    """The ``svc_learned`` workload's set-up: record, train, warm."""
    service = VerdictService(workloads.customer1_catalog(inputs.sizing.learned_rows))
    for spec in inputs.train:
        service.record_answer(spec.sql)
    service.train()
    for spec in inputs.warm:
        service.query(spec.sql, budget=INTERACTIVE, record=False)
    return service


def middle_third(count: int) -> range:
    return range(count // 3, 2 * count // 3)


def traced_pass(inputs: workloads.Inputs) -> tuple[list[Span], list[PreparedInference]]:
    """Every ask's trace, and the prepared models the middle third started from."""
    service = make_service(inputs)
    middle = middle_third(len(inputs.queries))
    roots, models = [], []
    for index, spec in enumerate(inputs.queries):
        if index == middle.start:
            models = [p for p in service.engine.prepared_factors().values() if p is not None]
        root = Span("ask")
        service.query(spec.sql, budget=INTERACTIVE, record=True, span=root)
        root.finish()
        roots.append(root)
    service.close()
    return roots, sorted(models, key=lambda p: p.size, reverse=True)


def stage_split(roots: list[Span]) -> dict[str, float]:
    """Mean wall seconds per ask of every traced stage, plus the rest."""
    totals: dict[str, float] = {"ask (total)": 0.0}
    for root in roots:
        totals["ask (total)"] += root.wall_s
        traced = 0.0
        for span in root.children:
            totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
            traced += span.wall_s
            if span.name.startswith("route.") and span.name != "route.skip":
                inside = 0.0
                for part in span.children:
                    key = f"{span.name} > {part.name}"
                    totals[key] = totals.get(key, 0.0) + part.wall_s
                    inside += part.wall_s
                key = f"{span.name} > (rest)"
                totals[key] = totals.get(key, 0.0) + span.wall_s - inside
        totals["(untraced rest)"] = totals.get("(untraced rest)", 0.0) + root.wall_s - traced
    return {name: value / len(roots) for name, value in totals.items()}


def profiled_entry_points(inputs: workloads.Inputs) -> tuple[dict[str, tuple[int, float]], int]:
    """Calls and cumulative seconds of each entry point over the middle third."""
    service = make_service(inputs)
    middle = middle_third(len(inputs.queries))
    profiler = cProfile.Profile()
    try:
        for index, spec in enumerate(inputs.queries):
            if index in middle:
                profiler.enable()
            service.query(spec.sql, budget=INTERACTIVE, record=True)
            profiler.disable()
    finally:
        service.close()
    stats = pstats.Stats(profiler).stats
    found: dict[str, tuple[int, float]] = {}
    for owner, method in ENTRY_POINTS:
        code = getattr(owner, method).__code__
        calls, cumulative = 0, 0.0
        for (filename, line, name), (_, total_calls, _, cum, _) in stats.items():
            if (filename, line, name) == (code.co_filename, code.co_firstlineno, code.co_name):
                calls, cumulative = total_calls, cum
        found[f"{owner.__name__}.{method}"] = (calls, cumulative)
    return found, len(middle)


def warm_call(call, arguments: list, repeats: int) -> float:
    """Median seconds of ``call(argument)`` over the arguments, cycled."""
    samples = []
    for _ in range(repeats):
        for argument in arguments:
            started = time.perf_counter()
            call(argument)
            samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def warm_timings(prepared: PreparedInference, repeats: int) -> tuple[dict[str, float], str]:
    """Per-call seconds of the kernel on one prepared model."""
    kernel, past = prepared.covariance, prepared.past_layout()
    # The regions of the model's latest snippets stand in for fresh cells.
    regions = [[snippet.region] for snippet in prepared.snippets[-32:]]
    fresh = [kernel.layout(region) for region in regions]
    blocks = [(past.appended(one), one) for one in fresh]
    timings = {
        "cross block, one fresh region": warm_call(
            lambda one: kernel.factor_matrix(past, one), fresh, repeats
        ),
        "1x1 corner": warm_call(kernel.factor_matrix, fresh, repeats),
        "the ask's block, one region": warm_call(
            lambda block: kernel.factor_matrix(*block), blocks, repeats
        ),
        "layout of one region": warm_call(kernel.layout, regions, repeats),
        "appended to the past layout": warm_call(past.appended, fresh, repeats),
    }
    shape = (
        f"n={prepared.size} past snippets, {len(kernel.attributes)} attributes, "
        f"{sum(not slots.spans for slots in past.slots)} constrained"
    )
    return timings, shape


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizing; check every stage")
    args = parser.parse_args(argv)
    sizing = workloads.Sizing.smoke() if args.smoke else workloads.Sizing.for_seconds(args.seconds)
    inputs = workloads.make_inputs("svc_learned", args.seed, sizing)
    missing: list[str] = []

    roots, models = traced_pass(inputs)
    middle = [roots[i] for i in middle_third(len(roots))]
    print(f"svc_learned seed={args.seed}: {len(roots)} asks, middle third {len(middle)}")
    print("\n1. per-ask split of the middle third (service trace, wall ms per ask)")
    split = stage_split(middle)
    for name, seconds in split.items():
        print(f"   {name:<36} {seconds * 1e3:8.3f}")
    for stage in ("cache.lookup", "plan", "route.learned", "route.learned > scan",
                  "route.learned > inference", "record"):  # fmt: skip
        if stage not in split:
            missing.append(stage)

    repeats = 3 if args.smoke else 20
    warm = [warm_timings(prepared, repeats) for prepared in models]
    if not warm:
        print("\nno prepared model to time", file=sys.stderr)
        return 1

    # The largest model's costs stand in for every call (an upper estimate).
    timings = warm[0][0]
    entry_points, asks = profiled_entry_points(inputs)
    print("\n2. the kernel's entry points per middle-third ask")
    per_call = {
        "SnippetCovariance.layout": timings["layout of one region"],
        "SnippetCovariance.factor_matrix": timings["the ask's block, one region"],
        "RegionLayout.appended": timings["appended to the past layout"],
    }
    estimate = profiled = 0.0
    for name, (calls, cumulative) in entry_points.items():
        per_ask = calls / max(asks, 1)
        estimate += per_ask * per_call[name]
        profiled += cumulative / max(asks, 1)
        print(f"   {name:<36} {per_ask:6.2f} calls/ask, "
              f"{cumulative / max(asks, 1) * 1e3:7.3f} ms/ask profiled")  # fmt: skip
        if calls == 0:
            missing.append(name)
    print(f"   {'calls x warm per-call cost':<36} {estimate * 1e3:8.3f} ms/ask")
    print(f"   {'profiled (upper bound)':<36} {profiled * 1e3:8.3f} ms/ask")

    print("\n3. warm per-call kernel timings, median us, per model the middle third started from")
    for timings, shape in warm:
        print(f"   {shape}")
        for name, seconds in timings.items():
            print(f"     {name:<34} {seconds * 1e6:8.1f}")

    if missing:
        print(f"\nmissing stages: {missing}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
