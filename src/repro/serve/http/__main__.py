"""CLI: run the multi-tenant HTTP front door.

Quickstart (synthetic sales workload, two tenants)::

    python -m repro.serve.http --root /tmp/verdict --tenants acme,globex

The first stdout line is a JSON readiness record::

    {"listening": {"host": "127.0.0.1", "port": 8123}, "root": "/tmp/verdict"}

so scripts (and the fault-injection tests) can wait for it, parse the bound
port (``--port 0`` picks a free one), and start firing requests.  The
process serves until SIGINT/SIGTERM, then shuts down gracefully: in-flight
requests finish, every tenant's learned state is snapshotted, and the audit
log is closed.  Because each tenant's catalog is built deterministically
from ``(workload, rows, seed, tenant name)``, a restarted server over the
same ``--root`` and data flags resumes every tenant byte-identically.

High availability: start a second process with ``--follow <leader>`` to run
it as a read-only replication follower pulling the leader's WAL::

    python -m repro.serve.http --root /tmp/verdict-b --follow 127.0.0.1:8123

The follower serves asks (degraded read-only mode), rejects writes with a
typed 503 naming the leader, and ``POST /v1/admin/promote`` turns it into
the leader under a fresh fencing epoch (manual failover).  ``--repl-ack
sync`` on the *leader* makes feedback acks wait until a follower confirms
the write is durably applied remotely.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import zlib
from pathlib import Path

from repro.config import CostModelConfig, SamplingConfig, VerdictConfig
from repro.db.catalog import Catalog
from repro.obs.trace import Tracer
from repro.serve.governor import BrownoutController, ResourceGovernor
from repro.serve.http.audit import AuditLog
from repro.serve.http.server import VerdictHTTPServer
from repro.serve.http.tenants import TenantManager
from repro.serve.replication import ReplicationManager, ReplicationPuller
from repro.serve.replication.state import ROLE_FOLLOWER, ROLE_LEADER
from repro.serve.service import VerdictService


def tenant_seed(base_seed: int, tenant: str) -> int:
    """Deterministic per-tenant seed -- stable across process restarts."""
    return base_seed + (zlib.crc32(tenant.encode()) % 100_000)


def build_catalog_factory(workload: str, rows: int, seed: int):
    """A ``tenant name -> Catalog`` factory for the built-in workloads."""

    def factory(tenant: str) -> Catalog:
        this_seed = tenant_seed(seed, tenant)
        if workload == "customer1":
            from repro.workloads.customer1 import Customer1Workload

            return Customer1Workload(num_rows=rows, seed=this_seed).build_catalog()
        if workload == "sales":
            from repro.workloads.synthetic import make_sales_table

            catalog = Catalog()
            catalog.add_table(
                make_sales_table(num_rows=rows, num_weeks=52, seed=this_seed),
                fact=True,
            )
            return catalog
        raise ValueError(f"unknown workload {workload!r}")

    return factory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.http", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123, help="0 picks a free port")
    parser.add_argument(
        "--root", required=True, help="state directory (tenant stores, audit log)"
    )
    parser.add_argument("--workload", choices=("sales", "customer1"), default="sales")
    parser.add_argument("--rows", type=int, default=20_000, help="rows per tenant")
    parser.add_argument("--seed", type=int, default=7, help="base data seed")
    parser.add_argument("--sample-ratio", type=float, default=0.2)
    parser.add_argument("--batches", type=int, default=5, help="sample batches")
    parser.add_argument(
        "--workers", type=int, default=4, help="max concurrently executing requests"
    )
    parser.add_argument(
        "--queue", type=int, default=16, help="admission queue bound (shed beyond)"
    )
    parser.add_argument(
        "--queue-timeout", type=float, default=5.0, help="seconds queued before shed"
    )
    parser.add_argument(
        "--max-loaded-tenants", type=int, default=8, help="LRU residency cap"
    )
    parser.add_argument(
        "--tenant-qps",
        type=float,
        default=None,
        help="per-tenant token refill rate (cheap-query tokens per second); "
        "expensive asks are priced higher by the planner's cost estimate",
    )
    parser.add_argument(
        "--tenant-concurrency",
        type=int,
        default=None,
        help="max simultaneously executing asks per tenant",
    )
    parser.add_argument(
        "--tenant-burst",
        type=float,
        default=2.0,
        help="bucket burst capacity, in seconds of --tenant-qps refill",
    )
    parser.add_argument(
        "--cost-unit",
        type=float,
        default=0.1,
        help="estimated model-seconds per extra quota token when pricing asks",
    )
    parser.add_argument(
        "--brownout",
        action="store_true",
        help="widen error budgets under sustained queue saturation "
        "(graceful degradation instead of a wall of 429s)",
    )
    parser.add_argument(
        "--brownout-threshold",
        type=float,
        default=0.5,
        help="queue-wait p99 (seconds) above which a window counts saturated",
    )
    parser.add_argument(
        "--brownout-window",
        type=float,
        default=1.0,
        help="saturation-detector window length in seconds",
    )
    parser.add_argument(
        "--tenants", default="", help="comma-separated tenants to pre-create"
    )
    parser.add_argument(
        "--auto-train-every",
        type=int,
        default=None,
        help="background-train a tenant after every N learned-state mutations",
    )
    parser.add_argument(
        "--learn",
        action="store_true",
        help="learn correlation length scales during training (slower)",
    )
    parser.add_argument(
        "--flush-every",
        type=int,
        default=8,
        help="flush learned state to the store after every N mutations",
    )
    parser.add_argument(
        "--audit-max-bytes",
        type=int,
        default=None,
        help="rotate the audit log once the live file reaches this size",
    )
    parser.add_argument(
        "--audit-retention",
        type=int,
        default=4,
        help="rotated audit files kept (oldest deleted at each rotation)",
    )
    parser.add_argument(
        "--no-trace",
        action="store_true",
        help="disable request tracing entirely (spans, ring, trace log)",
    )
    parser.add_argument(
        "--trace-ring",
        type=int,
        default=256,
        help="finished traces kept in memory for GET /v1/trace/<id>",
    )
    parser.add_argument(
        "--trace-log",
        default=None,
        help="JSONL trace log path (default <root>/trace/trace.jsonl; "
        "'none' disables the file while keeping the in-memory ring)",
    )
    parser.add_argument(
        "--slow-query-s",
        type=float,
        default=None,
        help="also write traces at least this slow to <root>/trace/slow.jsonl",
    )
    parser.add_argument(
        "--follow",
        default=None,
        metavar="HOST:PORT",
        help="run as a read-only replication follower of this leader",
    )
    parser.add_argument(
        "--repl-poll",
        type=float,
        default=0.5,
        help="follower pull interval in seconds",
    )
    parser.add_argument(
        "--repl-ack",
        choices=("async", "sync"),
        default="async",
        help="sync: leader feedback acks wait for a follower's durable apply",
    )
    parser.add_argument(
        "--repl-ack-timeout",
        type=float,
        default=10.0,
        help="seconds a sync-ack write waits before a typed 503",
    )
    parser.add_argument(
        "--repl-lag-degraded",
        type=float,
        default=30.0,
        help="follower lag above this many seconds reports degraded health",
    )
    args = parser.parse_args(argv)

    root = Path(args.root)
    sampling = SamplingConfig(
        sample_ratio=args.sample_ratio, num_batches=args.batches, seed=1
    )
    cost_model = CostModelConfig.scaled_for(int(args.rows * args.sample_ratio))
    config = VerdictConfig(learn_length_scales=args.learn)

    replication = ReplicationManager(
        root,
        role=ROLE_FOLLOWER if args.follow else ROLE_LEADER,
        leader_url=args.follow,
        ack_mode=args.repl_ack,
        ack_timeout_s=args.repl_ack_timeout,
        lag_degraded_s=args.repl_lag_degraded,
    )

    def service_factory(catalog, store) -> VerdictService:
        return VerdictService(
            catalog,
            store=store,
            sampling=sampling,
            cost_model=cost_model,
            config=config,
            # Training is a write: followers receive learned state via
            # replication, never produce it locally.
            auto_train_every=None if replication.is_follower else args.auto_train_every,
            flush_every=args.flush_every,
        )

    tenants = TenantManager(
        root,
        build_catalog_factory(args.workload, args.rows, args.seed),
        service_factory=service_factory,
        max_loaded=args.max_loaded_tenants,
        replication=replication,
    )
    for name in filter(None, args.tenants.split(",")):
        if not tenants.exists(name):
            tenants.create(name)

    audit = AuditLog.open_session(
        root / "audit",
        max_bytes=args.audit_max_bytes,
        retention=args.audit_retention,
    )
    tracer = None
    if not args.no_trace:
        if args.trace_log == "none":
            trace_log = None
        elif args.trace_log is not None:
            trace_log = Path(args.trace_log)
        else:
            trace_log = root / "trace" / "trace.jsonl"
        slow_log = (
            root / "trace" / "slow.jsonl" if args.slow_query_s is not None else None
        )
        tracer = Tracer(
            ring_capacity=args.trace_ring,
            log_path=trace_log,
            slow_log_path=slow_log,
            slow_threshold_s=args.slow_query_s,
        )
    governor = ResourceGovernor(
        tenant_qps=args.tenant_qps,
        tenant_concurrency=args.tenant_concurrency,
        burst_s=args.tenant_burst,
        cost_unit_s=args.cost_unit,
    )
    brownout = None
    if args.brownout:
        brownout = BrownoutController(
            threshold_s=args.brownout_threshold,
            window_s=args.brownout_window,
        )
    server = VerdictHTTPServer(
        (args.host, args.port),
        tenants,
        max_active=args.workers,
        max_queued=args.queue,
        queue_timeout_s=args.queue_timeout,
        audit=audit,
        tracer=tracer,
        replication=replication,
        governor=governor,
        brownout=brownout,
    )
    puller = None
    if replication.is_follower and replication.leader_url:
        puller = ReplicationPuller(
            replication,
            tenants,
            replication.leader_url,
            poll_interval_s=args.repl_poll,
            tracer=tracer,
        )
        puller.start()
    replication.bind(tenants=tenants, puller=puller)
    server.start()
    print(
        json.dumps(
            {
                "listening": {"host": args.host, "port": server.port},
                "root": str(root),
                "workload": args.workload,
                "audit": str(audit.path),
                "trace": (
                    None
                    if tracer is None
                    else str(tracer.log_path) if tracer.log_path else "ring-only"
                ),
                "replication": {
                    "role": replication.role,
                    "epoch": replication.epoch.number,
                    "leader": replication.leader_url,
                    "ack_mode": replication.ack_mode,
                },
            }
        ),
        flush=True,
    )

    stop = threading.Event()

    def on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        stop.wait()
    finally:
        if puller is not None:
            puller.stop()
        server.close()
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
