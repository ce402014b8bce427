"""Golden contract of ``/v1/metrics``: the exposition and the JSON keys.

One scripted in-process session -- two tenants, a governor shed, a
brownout escalated once, a tracer, and a learned, an exact and a cached
ask -- renders ``/v1/metrics?format=prometheus``.  The set of
``(family, TYPE, HELP)`` triples and of ``(series name, label names)``
pairs must equal ``exposition_golden.json`` beside this file, and the
counters the session moves deterministically must read their scripted
values.  A second test pins every JSON key the stack benchmark reads from
``VerdictService.metrics.as_dict()`` and from ``/v1/metrics``.

Regenerate the golden file only for a deliberate exposition change::

    PYTHONPATH=src python tests/serve/http/test_exposition_golden.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.obs.trace import Tracer
from repro.serve.client import SaturatedError, VerdictClient
from repro.serve.governor import BrownoutController, ResourceGovernor
from http_harness import start_server

GOLDEN = Path(__file__).with_name("exposition_golden.json")

COUNT_SQL = "SELECT COUNT(*) FROM sales"
RECORDED = [
    "SELECT AVG(revenue) FROM sales WHERE week >= 1 AND week <= 20",
    "SELECT AVG(revenue) FROM sales WHERE week >= 10 AND week <= 30",
    "SELECT AVG(revenue) FROM sales WHERE week >= 25 AND week <= 45",
]
LEARNED_SQL = "SELECT AVG(revenue) FROM sales WHERE week >= 5 AND week <= 35"

SAMPLE_RE = re.compile(r"\A([A-Za-z_:][A-Za-z0-9_:]*)(?:\{([^}]*)\})? (\S+)\Z")
LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="(?:[^"\\]|\\.)*"')


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def parse(text: str) -> tuple[set, set, dict]:
    """``(families, series shapes, {series: value})`` of one exposition."""
    help_text: dict[str, str] = {}
    families: set[tuple[str, str, str]] = set()
    shapes: set[tuple[str, tuple[str, ...]]] = set()
    values: dict[str, float] = {}
    for line in text.strip().splitlines():
        if line.startswith("# HELP "):
            _, _, name, rest = line.split(" ", 3)
            help_text[name] = rest
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            families.add((name, kind, help_text[name]))
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name, labels, value = match.groups()
        shapes.add((name, tuple(sorted(LABEL_RE.findall(labels or "")))))
        values[f"{name}{{{labels or ''}}}"] = float(value)
    return families, shapes, values


def run_session(root: Path) -> dict:
    """Drive the scripted session; return its Prometheus text and JSON views."""
    brownout_clock = ManualClock()
    brownout = BrownoutController(saturated_windows=1, clock=brownout_clock)
    brownout.observe(brownout.threshold_s * 4)
    brownout_clock.now += brownout.window_s
    brownout.tick()
    assert brownout.level == 1
    governor_clock = ManualClock()
    # qps 0.5 with a 2 s burst: a one-token bucket, refilled by moving the
    # governor's clock two seconds.
    governor = ResourceGovernor(tenant_qps=0.5, burst_s=2.0, clock=governor_clock)
    server = start_server(
        root,
        {"acme": 1_500, "beta": 1_600},
        governor=governor,
        brownout=brownout,
        tracer=Tracer(),
    )
    routes = []
    try:
        with VerdictClient(port=server.port, tenant="acme", max_retries=0) as c:
            for sql in RECORDED:
                c.record(sql)
            c.train(wait=True)
            routes.append(c.ask(LEARNED_SQL, max_relative_error=0.5)["route"])
            with pytest.raises(SaturatedError):
                c.ask(COUNT_SQL, max_relative_error=0.0)
            governor_clock.now += 2.0
            routes.append(c.ask(COUNT_SQL, max_relative_error=0.0)["route"])
            governor_clock.now += 2.0
            routes.append(c.ask(LEARNED_SQL, max_relative_error=0.5)["route"])
        with VerdictClient(port=server.port, tenant="beta", max_retries=0) as c:
            routes.append(c.ask(COUNT_SQL, max_relative_error=0.0)["route"])
            return {
                "routes": routes,
                "prometheus": c.metrics_prometheus(tenant=""),
                "tenant_prometheus": c.metrics_prometheus(tenant="acme"),
                "server": c.metrics(tenant=""),
                "tenant": c.metrics(tenant="acme"),
            }
    finally:
        server.close()


@pytest.fixture(scope="module")
def session(tmp_path_factory) -> dict:
    return run_session(tmp_path_factory.mktemp("golden"))


def golden_view(text: str) -> dict:
    families, shapes, _ = parse(text)
    return {
        "families": sorted(list(family) for family in families),
        "series": sorted([name, list(labels)] for name, labels in shapes),
    }


class TestExpositionGolden:
    def test_session_takes_every_route(self, session):
        assert session["routes"] == ["learned", "exact", "cached", "exact"]

    def test_families_and_series_match_golden(self, session):
        golden = json.loads(GOLDEN.read_text())
        assert golden_view(session["prometheus"]) == golden

    def test_deterministic_counters(self, session):
        _, _, values = parse(session["prometheus"])
        expected = {
            'verdict_requests_total{route="learned",tenant="acme"}': 1,
            'verdict_requests_total{route="exact",tenant="acme"}': 1,
            'verdict_requests_total{route="cached",tenant="acme"}': 1,
            'verdict_requests_total{route="exact",tenant="beta"}': 1,
            'verdict_route_wall_seconds_count{route="learned",tenant="acme"}': 1,
            'verdict_route_wall_seconds_bucket{le="+Inf",route="exact",tenant="beta"}': 1,
            'verdict_governor_outcomes_total{outcome="admitted",tenant="acme"}': 3,
            'verdict_governor_outcomes_total{outcome="shed_tokens",tenant="acme"}': 1,
            'verdict_governor_outcomes_total{outcome="shed_concurrency",tenant="acme"}': 0,
            'verdict_governor_outcomes_total{outcome="admitted",tenant="beta"}': 1,
            'verdict_governor_active{tenant="acme"}': 0,
            'verdict_governor_cancels_total{reason="requested",tenant="acme"}': None,
            'verdict_cancel_requests_total{outcome="delivered"}': 0,
            'verdict_cancel_requests_total{outcome="unknown"}': 0,
            # record x3 + train + 3 admitted asks (acme), 1 ask (beta).
            'verdict_admission_outcomes_total{outcome="admitted_immediate"}': 7,
            'verdict_admission_outcomes_total{outcome="admitted_queued"}': 0,
            'verdict_admission_outcomes_total{outcome="shed_queue_full"}': 0,
            'verdict_admission_outcomes_total{outcome="shed_timeout"}': 0,
            'verdict_admission_outcomes_total{outcome="rejected_closed"}': 0,
            "verdict_admission_active{}": 0,
            "verdict_admission_queued{}": 0,
            "verdict_brownout_level{}": 1,
            'verdict_brownout_transitions_total{direction="escalate"}': 1,
            'verdict_brownout_transitions_total{direction="deescalate"}': 0,
            'verdict_breaker_state{route="learned",tenant="acme"}': 0,
            'verdict_trainer_dead{tenant="acme"}': 0,
            'verdict_replication_role{}': 0,
            'verdict_replication_fenced{}': 0,
        }
        actual = {key: values.get(key) for key in expected}
        assert actual == expected

    def test_tenant_scoped_exposition_is_the_tenant_slice(self, session):
        families, _, values = parse(session["tenant_prometheus"])
        assert all('tenant="acme"' in key for key in values)
        server_families, _, _ = parse(session["prometheus"])
        assert families <= server_families
        assert values['verdict_requests_total{route="cached",tenant="acme"}'] == 1


class TestBenchmarkJsonKeys:
    """Every key ``benchmarks/stack/drivers.py`` reads from the metrics views."""

    def test_service_as_dict_keys(self):
        from repro.config import SamplingConfig, VerdictConfig
        from repro.serve import ServiceBudget, VerdictService
        from http_harness import make_catalog_factory

        service = VerdictService(
            make_catalog_factory({"t": 1_200})("t"),
            sampling=SamplingConfig(sample_ratio=0.25, num_batches=4, seed=2),
            config=VerdictConfig(learn_length_scales=False),
        )
        with service:
            service.query(COUNT_SQL, budget=ServiceBudget.exact())
            state = service.metrics.as_dict()
        assert state["routes"]["exact"]["requests"] == 1
        assert isinstance(state["events"], dict)
        for key in ("scans", "partitions_total", "partitions_pruned", "rows_scanned"):
            assert isinstance(state["scan"][key], int), key
        assert state["scan"]["scans"] == 1

    def test_http_metrics_keys(self, session):
        tenant = session["tenant"]["metrics"]
        assert {name: entry["requests"] for name, entry in tenant["routes"].items()} == {
            "cached": 1,
            "exact": 1,
            "learned": 1,
        }
        whole = session["server"]
        assert whole["admission"]["admitted"] == 7
        assert whole["admission"]["shed"] == 0
        tenants = whole["governor"]["tenants"]
        assert tenants["acme"]["shed_tokens"] == 1
        assert tenants["acme"]["shed_concurrency"] == 0
        assert tenants["beta"]["shed_tokens"] == 0
        assert isinstance(whole["tracer"]["finished"], int)
        assert whole["tracer"]["finished"] > 0


if __name__ == "__main__":  # pragma: no cover - regenerates the golden file
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        view = golden_view(run_session(Path(scratch))["prometheus"])
    GOLDEN.write_text(json.dumps(view, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(view['families'])} families)", file=sys.stderr)
