"""Per-session JSONL audit log for the HTTP front door.

Every served request appends one JSON line recording who asked for what,
which route answered it, how long it took, and how it terminated -- the
durable trace an operator greps when a tenant disputes an answer.  The line
is written before the response goes out; if the send then fails, a
follow-up line with ``client_gone`` and the same ``request_id`` says so.  One
file per server session (named after the session id), append-only, so logs
from successive restarts never interleave::

    <root>/audit/<session-id>.jsonl

Record fields: ``ts`` (unix seconds), ``seq`` (per-session sequence
number), ``session``, ``endpoint`` (``METHOD /path``), ``tenant`` (the one
the request names, ``null`` if none -- failure lines keep it), ``status``
(HTTP), ``latency_s`` (server-side wall clock), ``request_id``, and
``role`` / ``epoch`` (the node's replication role and fencing epoch when
it answered), plus per-endpoint extras:

- ``route`` and ``error_bound`` -- an answered ask;
- ``explain`` -- an EXPLAIN ask (``true``);
- ``brownout_level`` -- an ask whose budget brownout widened (on its
  failure line too);
- ``cancelled`` -- an ask cancelled mid-flight: ``requested`` or
  ``disconnected``;
- ``cancel_target`` -- ``POST /v1/cancel``: the request id it named;
- ``rows`` -- ``feedback/append``: rows appended;
- ``records`` -- ``replication/deltas``: WAL records shipped;
- ``error`` -- any failure: the machine code;
- ``client_gone`` -- the follow-up line of a response whose send failed.

``tests/serve/http/audit_lines_golden.json`` pins every endpoint's line.

Writes are serialized by a lock and flushed per record (no fsync: the audit
log is an operational trace, not the durability story -- that is the
synopsis store's job).

Rotation: with ``max_bytes`` set, a record that pushes the live file past
the cap triggers a shift rotation (``log.jsonl`` -> ``log.jsonl.1`` ->
``log.jsonl.2`` ...), keeping at most ``retention`` rotated files -- a
long-lived server cannot fill the disk with its own trace.  Rotation
happens between records (never mid-line), so every file in the set stays
valid JSONL.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path


class AuditLog:
    """Append-only JSONL request log, one file per server session.

    Parameters
    ----------
    path, session_id:
        Live log file and the session tag stamped on each record.
    max_bytes:
        Rotate once the live file reaches this size (``None`` = never).
    retention:
        Number of rotated files kept (``.1`` newest .. ``.retention``
        oldest); the oldest is deleted at each rotation.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        session_id: str,
        max_bytes: int | None = None,
        retention: int = 4,
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive when given")
        if retention < 1:
            raise ValueError("retention must be >= 1")
        self.path = Path(path)
        self.session_id = session_id
        self.entries_written = 0
        self.max_bytes = max_bytes
        self.retention = retention
        self.rotations = 0
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = self.path.stat().st_size

    @classmethod
    def open_session(
        cls,
        directory: str | os.PathLike[str],
        max_bytes: int | None = None,
        retention: int = 4,
    ) -> "AuditLog":
        """Open a fresh log file named after a new unique session id."""
        session_id = f"serve-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        return cls(
            Path(directory) / f"{session_id}.jsonl",
            session_id,
            max_bytes=max_bytes,
            retention=retention,
        )

    def record(
        self,
        endpoint: str,
        status: int,
        latency_s: float,
        tenant: str | None = None,
        **extra,
    ) -> None:
        """Append one request record; never raises into the request path."""
        entry = {
            "ts": time.time(),
            "session": self.session_id,
            "endpoint": endpoint,
            "tenant": tenant,
            "status": status,
            "latency_s": latency_s,
        }
        entry.update(extra)
        try:
            with self._lock:
                if self._handle.closed:
                    return
                entry["seq"] = self.entries_written
                line = json.dumps(entry, default=str) + "\n"
                self._handle.write(line)
                self._handle.flush()
                self.entries_written += 1
                self._bytes += len(line.encode("utf-8"))
                if self.max_bytes is not None and self._bytes >= self.max_bytes:
                    self._rotate_locked()
        except OSError:
            # A full disk must not fail the query that triggered the record.
            pass

    def _rotate_locked(self) -> None:
        """Shift the rotation chain and reopen a fresh live file (lock held)."""
        self._handle.close()
        oldest = Path(f"{self.path}.{self.retention}")
        if oldest.exists():
            oldest.unlink()
        for index in range(self.retention - 1, 0, -1):
            source = Path(f"{self.path}.{index}")
            if source.exists():
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._handle = open(self.path, "a", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def rotated_paths(self) -> list[Path]:
        """Existing rotated files, newest first."""
        return [
            path
            for index in range(1, self.retention + 1)
            if (path := Path(f"{self.path}.{index}")).exists()
        ]

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()
