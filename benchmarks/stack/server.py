"""Subprocess harness for the HTTP workload's server.

Untraced, the child is exactly ``python -m repro.serve.http`` with default
settings.  Traced, the child is this file: it installs the span wraps, calls
the same CLI ``main`` with the same arguments, and dumps its spans when the
server has drained -- so both passes run the server the CLI builds, in its own
process, and differ only in the wraps.

The harness owns the child's lifetime (readiness line, SIGTERM drain, kill on
timeout, temp-dir cleanup on every exit path) and reads what the kernel knows
about it: CPU seconds from ``/proc/<pid>/stat`` and peak RSS (``VmHWM``) from
``/proc/<pid>/status``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

STACK_DIR = Path(__file__).resolve().parent
REPO_ROOT = STACK_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
SCRATCH_DIR = STACK_DIR / "results" / "tmp"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def process_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (all threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields resume after ")".
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def process_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so a pass reports its own peak.

    Best effort: where ``/proc/self/clear_refs`` is not writable the peak
    stays the process's (earlier set-ups of the same size included).
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def make_scratch_dir(prefix: str) -> Path:
    """A temp dir inside the checkout (the benchmark writes nowhere else)."""
    SCRATCH_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=SCRATCH_DIR))


class ServerProcess:
    """One ``repro.serve.http`` child over a private state directory."""

    def __init__(self, rows: int, seed: int, tenant: str, spans_out: Path | None = None):
        self.root = make_scratch_dir("http-")
        self.spans_out = spans_out
        arguments = [
            "--port", "0",
            "--root", str(self.root),
            "--workload", "sales",
            "--rows", str(rows),
            "--seed", str(seed),
            "--tenants", tenant,
        ]  # fmt: skip
        if spans_out is None:
            command = [sys.executable, "-m", "repro.serve.http", *arguments]
        else:
            command = [sys.executable, str(Path(__file__).resolve()), str(spans_out), *arguments]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), environment.get("PYTHONPATH", "")])
        )
        try:
            self.process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                env=environment,
                text=True,
            )
        except OSError:
            shutil.rmtree(self.root, ignore_errors=True)
            raise
        try:
            line = self.process.stdout.readline()
            self.ready = json.loads(line)
            self.port = int(self.ready["listening"]["port"])
        except (ValueError, KeyError):
            self.cleanup()
            raise RuntimeError(f"server did not report readiness: {line!r}") from None

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        return process_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.pid)

    def audit_records(self) -> list[dict]:
        """Every audit line the server wrote (read after it has stopped)."""
        records = []
        for path in sorted((self.root / "audit").glob("*.jsonl*")):
            with open(path, encoding="utf-8") as handle:
                records += [json.loads(line) for line in handle if line.strip()]
        return records

    def audit_log_bytes(self) -> int:
        return sum(path.stat().st_size for path in (self.root / "audit").iterdir())

    def trace_log_bytes(self) -> int:
        path = self.ready.get("trace")
        return os.path.getsize(path) if path and os.path.isfile(path) else 0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill if it overruns.  Idempotent."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def cleanup(self) -> None:
        self.stop()
        shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()


def _traced_child(spans_out: str, arguments: list[str]) -> int:
    """Entry point of the traced server child (see the module docstring)."""
    from repro.serve.http.__main__ import main

    from spans import SpanRecorder

    recorder = SpanRecorder()
    recorder.install()
    try:
        return main(arguments)
    finally:
        recorder.dump(Path(spans_out))


if __name__ == "__main__":
    sys.exit(_traced_child(sys.argv[1], sys.argv[2:]))
