"""Persistent synopsis store: snapshots plus an incremental delta log.

The paper's promise is a database that "becomes smarter every time" -- which
is only meaningful if the learned state survives the process.  The store
persists a :class:`repro.core.engine.VerdictEngine`'s learned state (query
synopsis, learned correlation parameters, prepared covariance factorisations)
to a directory so a restarted service resumes *exactly* as smart as it
stopped.

Layout (all JSON, human-inspectable)::

    <directory>/
        snapshot.json        full engine state + CRC32 checksum footer
        snapshot.prev.json   the retained previous snapshot generation
        deltas.jsonl         one CRC32-wrapped record per append-only flush
        quarantine/          corrupt files set aside during recovery

Write path
----------
:meth:`SynopsisStore.flush` asks the synopsis for the delta since the last
persisted version (reusing the engine's own ``changes_since`` change log)
and the engine for its factor schedule since the last persisted state epoch
(``factor_events_since``):

* appends and/or factor growth -> one checksummed JSONL record appended to
  ``deltas.jsonl``: ``"snippets"`` in append order plus ``"factors"``, the
  ``[key, synopsis version]`` of every factorisation an ask materialised,
  rank-k extended, re-stamped or dropped.  The factor arrays are not
  written -- replay re-runs each event once the synopsis reaches its
  version, and the same base arrays, snippets and chunk boundaries give
  the same bits;
* anything else          -> full snapshot (evictions, data-append
  adjustments, model overrides and re-training are barriers: they rewrite
  state a record cannot replay);
* delta log too long     -> full snapshot (*compaction*: the log is folded
  into ``snapshot.json`` and truncated).

Snapshot rotation is atomic and *generational*: the new snapshot is written
to a temporary file and fsynced, the current ``snapshot.json`` is retained
as ``snapshot.prev.json``, the temporary file is ``os.replace``d in, and
only then is the delta log truncated.  A crash between any two steps leaves
a combination the read path recovers from (see below); the fault points
named ``store.*`` (:mod:`repro.faults`) let the crash-matrix tests kill the
process at every one of these steps.

Read path & failure model
-------------------------
:meth:`SynopsisStore.load_into` restores the best available snapshot into
an engine and replays delta records in order.  Every record and both
snapshot generations are checksummed, so recovery distinguishes and handles
each corruption mode instead of crash-looping:

* **torn delta tail** (crash mid-append): the log is truncated to the
  longest valid prefix of records and rewritten, replay continues;
* **corrupt delta record** (bad or missing CRC envelope, no integer
  ``seq``, version gap): same truncation -- a record is applied fully or not
  at all, and nothing after a bad record is trusted;
* **corrupt current snapshot** (bad or missing checksum footer, wrong
  format, no ``replication`` block): the file is moved to ``quarantine/``
  and the retained previous generation is restored instead (stale deltas
  are skipped by sequence; newer-than-snapshot deltas whose base does not
  match are truncated);
* **both generations corrupt/unreadable**: everything is quarantined and
  the store reports "empty" -- the service starts fresh (degraded, visible
  in ``/v1/healthz``) rather than refusing to start.

Recovery is idempotent: loading, killing, and loading again reaches the
same state (the property and crash-matrix tests assert byte-identical
replayed answers).  All recovery events are counted in
:attr:`SynopsisStore.counters` and surfaced through the service metrics.

Replication envelope
--------------------
Every delta record additionally carries a monotonic shipping sequence
number (``seq``) and the store's fencing epoch (``epoch`` + a random
``lineage`` token minted at each promotion), and snapshots carry a
``replication`` block ``{seq, epoch, lineage}``.  The leader side of
:mod:`repro.serve.replication` ships these verbatim (:meth:`delta_tail`);
the follower side applies them verbatim (:meth:`ship_append`,
:meth:`install_shipped_snapshot`) so replicated state is byte-identical by
construction.  The fencing epoch is persisted in an ``epoch.json`` sidecar
(and inside every snapshot): a record stamped with an older epoch -- or an
equal epoch from a *different* lineage, the consensus-free split-brain
signature -- is rejected with a typed
:class:`~repro.errors.EpochFencedError` instead of silently diverging.
A store opened with ``replica=True`` refuses local WAL writes (its log is
written only by the shipping path) and its snapshots do not advance the
sequence -- they merely persist what was shipped.  A follower answers asks
from its own engine, which grows factors on its own schedule; that growth
is a cache, never state: before a shipped record is applied (and before a
replica snapshot) the engine is put back on the factors of the last applied
record, so shipped factor events extend what the leader extended.
"""

from __future__ import annotations

import json
import os
from collections import deque
from pathlib import Path

from repro import faults
from repro.core.engine import VerdictEngine
from repro.core.serialize import (
    STATE_FORMAT_VERSION,
    decode_checked_record,
    decode_snapshot_document,
    encode_checked_record,
    encode_snapshot_document,
)
from repro.core.inference import PreparedInference
from repro.core.snippet import Snippet, SnippetKey
from repro.errors import (
    EpochFencedError,
    ReplicationError,
    ReplicationGapError,
    StoreError,
)

SNAPSHOT_FILE = "snapshot.json"
PREVIOUS_SNAPSHOT_FILE = "snapshot.prev.json"
DELTA_FILE = "deltas.jsonl"
EPOCH_FILE = "epoch.json"
QUARANTINE_DIR = "quarantine"


class SynopsisStore:
    """Durable snapshots + deltas of a Verdict engine's learned state.

    Parameters
    ----------
    directory:
        Directory holding the snapshot and delta-log files (created on first
        write).
    compact_after:
        Number of delta records after which the next flush folds the log
        into a fresh snapshot.
    replica:
        Opened on a replication follower: local WAL writes are refused
        (shipped records are the only writers of the delta log) and
        snapshots persist the applied state without advancing the shipping
        sequence.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        compact_after: int = 256,
        replica: bool = False,
    ):
        if compact_after <= 0:
            raise StoreError("compact_after must be positive")
        self.directory = Path(directory)
        self.compact_after = compact_after
        self.replica = replica
        self.snapshots_written = 0
        self.deltas_written = 0
        self.factor_events_written = 0
        #: Recovery accounting, surfaced through the serving metrics.
        self.counters: dict[str, int] = {
            "deltas_replayed": 0,
            "factor_events_replayed": 0,
            "deltas_truncated": 0,
            "tail_recoveries": 0,
            "snapshots_quarantined": 0,
            "previous_generation_recoveries": 0,
            "orphaned_delta_logs": 0,
        }
        #: True when the last load had to quarantine a snapshot -- the
        #: service reports itself degraded until a fresh snapshot succeeds.
        self.quarantined = False
        #: Human-readable notes of what recovery did, newest last.
        self.recovery_notes: list[str] = []
        self._persisted_version: int | None = None
        self._persisted_epoch: int | None = None
        #: On a replica, the factors as of the last applied record.
        self._shipped_factors: dict[SnippetKey, PreparedInference] | None = None
        self._delta_records = self._count_delta_records()
        #: Shipping sequence: the seq of the last durable WAL event, and the
        #: seq the current snapshot covers.  Everything in ``(snapshot
        #: sequence, sequence]`` is in the delta log and shippable.
        self.sequence = 0
        self.snapshot_sequence = 0
        #: Fencing epoch: bumped (with a fresh lineage token) at every
        #: promotion, stamped on every shipped record and snapshot.
        self.fencing_epoch = 0
        self.fencing_lineage = ""
        self._load_fencing_sidecar()

    # ------------------------------------------------------------------- paths

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_FILE

    @property
    def previous_snapshot_path(self) -> Path:
        return self.directory / PREVIOUS_SNAPSHOT_FILE

    @property
    def quarantine_directory(self) -> Path:
        return self.directory / QUARANTINE_DIR

    @property
    def delta_path(self) -> Path:
        return self.directory / DELTA_FILE

    @property
    def epoch_path(self) -> Path:
        return self.directory / EPOCH_FILE

    def exists(self) -> bool:
        """Whether any snapshot generation is present to restore from."""
        return self.snapshot_path.is_file() or self.previous_snapshot_path.is_file()

    @property
    def delta_log_length(self) -> int:
        """Number of delta records currently in the log."""
        return self._delta_records

    # -------------------------------------------------------------------- read

    def load_into(self, engine: VerdictEngine) -> bool:
        """Restore the persisted state into ``engine``.

        Returns ``True`` when a usable snapshot was found and loaded,
        ``False`` when the store is empty *or nothing could be recovered*
        (corrupt files are quarantined, never crash-looped on; the
        :attr:`quarantined` flag and :attr:`counters` say which happened).
        """
        snapshot = self._load_snapshot_payload()
        if snapshot is None:
            if self.quarantined and self.delta_path.is_file():
                # A delta log is meaningless without the snapshot it
                # follows; set it aside for forensics rather than replaying
                # it against a fresh engine (guaranteed version gap).
                self._quarantine(self.delta_path, "orphaned delta log")
                self.counters["orphaned_delta_logs"] += 1
                self._delta_records = 0
            return False
        engine.load_state_dict(snapshot["engine"])
        replication = snapshot["replication"]
        self.snapshot_sequence = int(replication.get("seq", 0))
        try:
            self.adopt_epoch(
                int(replication.get("epoch", 0)),
                str(replication.get("lineage", "")),
            )
        except EpochFencedError:
            pass  # the sidecar outlived this snapshot (promotion since)
        self.sequence = self.snapshot_sequence
        self._replay_deltas(engine)
        self._mark_persisted(engine)
        return True

    def _load_snapshot_payload(self) -> dict | None:
        """The newest readable, checksum-valid, sequenced snapshot payload.

        Tries the current generation first, then the retained previous one.
        Unusable files are moved to ``quarantine/`` (with the reason noted)
        so a restart loop cannot keep tripping over the same bad bytes.
        """
        for path, generation in (
            (self.snapshot_path, "current"),
            (self.previous_snapshot_path, "previous"),
        ):
            if not path.is_file():
                continue
            try:
                payload = decode_snapshot_document(path.read_text())
            except (OSError, ValueError) as error:
                self._quarantine(path, f"{generation} snapshot unreadable: {error}")
                self.counters["snapshots_quarantined"] += 1
                self.quarantined = True
                continue
            if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT_VERSION:
                found = payload.get("format") if isinstance(payload, dict) else None
                reason = f"format {found!r} unsupported (expected {STATE_FORMAT_VERSION})"
            elif not isinstance(payload.get("replication"), dict):
                reason = "has no replication block"
            else:
                reason = None
            if reason is not None:
                self._quarantine(path, f"{generation} snapshot {reason}")
                self.counters["snapshots_quarantined"] += 1
                self.quarantined = True
                continue
            if generation == "previous":
                self.counters["previous_generation_recoveries"] += 1
                self.recovery_notes.append(
                    "recovered from the previous snapshot generation"
                )
            return payload
        return None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move an unusable file into ``quarantine/`` and note why."""
        self.quarantine_directory.mkdir(parents=True, exist_ok=True)
        serial = len(list(self.quarantine_directory.iterdir()))
        target = self.quarantine_directory / f"{path.name}.{serial}"
        try:
            os.replace(path, target)
        except OSError:
            # Worst case (e.g. read-only filesystem) the bad file stays put;
            # the load still proceeds to the next candidate.
            pass
        self.recovery_notes.append(f"quarantined {path.name}: {reason}")

    def _replay_deltas(self, engine: VerdictEngine) -> None:
        """Apply delta records newer than the restored snapshot, in order.

        Replay stops at the first record that is torn, fails its CRC, lacks
        an integer ``seq``, or does not follow on from the restored state (a
        version gap): a crash or corruption invalidates everything *after*
        it, so the log is truncated to the longest valid prefix and
        rewritten.  Records at or below the snapshot's sequence are already
        folded into it and are skipped.
        """
        if not self.delta_path.is_file():
            self._delta_records = 0
            return
        records = 0
        valid_lines: list[str] = []
        truncated_from: str | None = None
        # errors="replace": a non-UTF-8 byte (bit rot) must surface as a CRC
        # failure on its record -- handled below -- not as a decode crash.
        lines = [
            line
            for line in self.delta_path.read_text(errors="replace").splitlines()
            if line.strip()
        ]
        for line_number, line in enumerate(lines, start=1):
            try:
                faults.inject("store.replay.record", line=line_number)
                record = decode_checked_record(line)
            except Exception:
                record = None
            seq = record.get("seq") if isinstance(record, dict) else None
            if not isinstance(seq, int):
                truncated_from = f"record {line_number} is torn or corrupt"
                break
            current = engine.synopsis.version
            if seq <= self.sequence:
                valid_lines.append(line)
                records += 1
                continue  # already folded into the snapshot
            if record.get("base_version") != current:
                truncated_from = (
                    f"record {line_number} expects synopsis version "
                    f"{record.get('base_version')} but the restored state "
                    f"is at {current}"
                )
                break
            self._apply_record(engine, record)
            self.sequence = seq
            valid_lines.append(line)
            records += 1
            self.counters["deltas_replayed"] += 1
        if truncated_from is not None:
            # Truncate the log to the valid prefix.  Leaving the bad tail in
            # place would make the next flush append onto it, merging two
            # records into one unparsable line and silently losing every
            # later record on the following restart.
            dropped = len(lines) - len(valid_lines)
            self._atomic_write(
                self.delta_path, "".join(line + "\n" for line in valid_lines)
            )
            self.counters["deltas_truncated"] += dropped
            self.counters["tail_recoveries"] += 1
            self.recovery_notes.append(
                f"truncated {dropped} delta record(s): {truncated_from}"
            )
        self._delta_records = records

    def _apply_record(self, engine: VerdictEngine, record: dict) -> None:
        """Apply one delta record to an engine at the record's base version.

        Shared by restart replay and the follower apply path.  Snippets are
        restored in order; each factor event runs once the synopsis reaches
        the version it was logged at, which makes the engine take the same
        extend / rebuild / drop decision, over the same snippets, as the
        engine that wrote the record.
        """
        pending = deque(record.get("factors", ()))
        replayed = len(pending)

        def run_due_events() -> None:
            while pending and pending[0][1] <= engine.synopsis.version:
                key_state, _ = pending.popleft()
                engine.replay_factor_event(SnippetKey.from_state(key_state))

        run_due_events()
        for snippet_state in record["snippets"]:
            engine.synopsis.restore(Snippet.from_state(snippet_state))
            run_due_events()
        self.counters["factor_events_replayed"] += replayed - len(pending)

    def _mark_persisted(self, engine: VerdictEngine) -> None:
        """Note that the engine's current learned state is what is on disk."""
        self._persisted_version = engine.synopsis.version
        self._persisted_epoch = engine.state_epoch
        engine.forget_factor_events(engine.state_epoch)
        self._shipped_factors = engine.prepared_factors() if self.replica else None

    def _rewind_replica(self, engine: VerdictEngine) -> None:
        """Discard the factor growth of a follower's own asks."""
        if self.replica and self._shipped_factors is not None:
            engine.reset_factors(self._shipped_factors, self._persisted_epoch)

    # ------------------------------------------------------------------- write

    def flush(self, engine: VerdictEngine) -> str:
        """Persist everything that changed since the last flush.

        Returns ``"noop"`` (nothing changed), ``"delta"`` (appended snippets
        and the factor growth of the asks in between went to the delta log
        as one record), or ``"snapshot"`` (a full snapshot was written --
        first flush, a barrier such as training or a data append, a
        non-append synopsis mutation, or compaction).
        """
        version = engine.synopsis.version
        epoch = engine.state_epoch
        if self._persisted_version is None:
            return self.save_snapshot(engine)
        if self.replica:
            # A follower's learned state may only change through the
            # shipping path; a dirty local engine here means something
            # mutated a read-only replica.  (Its epoch does move, with the
            # factor growth of its own asks -- which is never persisted.)
            if version != self._persisted_version:
                raise StoreError(
                    "replica store is read-only: writes arrive via replication"
                )
            return "noop"
        if version == self._persisted_version and epoch == self._persisted_epoch:
            return "noop"
        events = engine.factor_events_since(self._persisted_epoch)
        delta = engine.synopsis.changes_since(self._persisted_version)
        if events is None or delta is None or delta.dirty:
            return self.save_snapshot(engine)
        if self._delta_records >= self.compact_after:
            return self.save_snapshot(engine)
        if version == self._persisted_version and not events:
            self._mark_persisted(engine)
            return "noop"

        appended = [
            snippet for snippets in delta.appended.values() for snippet in snippets
        ]
        # The per-key lists lose the global append order; the LRU sequence
        # numbers assigned at add() time recover it exactly.
        appended.sort(key=lambda snippet: snippet.sequence)
        record = {
            "base_version": self._persisted_version,
            "version": version,
            "seq": self.sequence + 1,
            "epoch": self.fencing_epoch,
            "lineage": self.fencing_lineage,
            "snippets": [snippet.to_state() for snippet in appended],
        }
        if events:
            record["factors"] = [[key.to_state(), at] for key, at in events]
        line = encode_checked_record(record) + "\n"
        self.directory.mkdir(parents=True, exist_ok=True)
        directive = faults.inject("store.delta.append", version=version)
        with open(self.delta_path, "a", encoding="utf-8") as handle:
            if directive is not None and directive.action == "torn":
                # Simulated crash mid-append: half the record reaches the
                # file (durably -- the bytes survive a process death), then
                # the process dies.  Recovery must truncate this tail.
                handle.write(line[: max(1, len(line) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
                faults.hard_exit()
            handle.write(line)
            handle.flush()
            faults.inject("store.delta.fsync", version=version)
            os.fsync(handle.fileno())
        self._mark_persisted(engine)
        self.sequence += 1
        self._delta_records += 1
        self.deltas_written += 1
        self.factor_events_written += len(events)
        return "delta"

    def save_snapshot(self, engine: VerdictEngine) -> str:
        """Write a full snapshot atomically, rotate generations, truncate log.

        Ordering (each step is atomic; the read path recovers from a crash
        between any two): write + fsync the new snapshot to a temporary
        file; retain the current snapshot as the previous generation;
        publish the new snapshot via rename; truncate the delta log.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self._rewind_replica(engine)
        # A leader snapshot is itself a WAL event (it may fold non-delta
        # mutations -- training, evictions -- that were never shipped), so
        # it advances the shipping sequence; a replica snapshot merely
        # persists already-shipped state at its current sequence.
        sequence = self.sequence if self.replica else self.sequence + 1
        payload = {
            "format": STATE_FORMAT_VERSION,
            "engine": engine.state_dict(),
            "replication": {
                "seq": sequence,
                "epoch": self.fencing_epoch,
                "lineage": self.fencing_lineage,
            },
        }
        document = encode_snapshot_document(payload)
        temporary = self.snapshot_path.with_suffix(".json.tmp")
        directive = faults.inject("store.snapshot.write")
        with open(temporary, "w", encoding="utf-8") as handle:
            if directive is not None and directive.action == "torn":
                handle.write(document[: max(1, len(document) // 2)])
                handle.flush()
                os.fsync(handle.fileno())
                faults.hard_exit()
            handle.write(document)
            handle.flush()
            faults.inject("store.snapshot.fsync")
            os.fsync(handle.fileno())
        if self.snapshot_path.is_file():
            # Retain the outgoing generation: if the *new* snapshot later
            # turns out corrupt (bad disk, torn write that fsync lied
            # about), recovery falls back to this one.
            os.replace(self.snapshot_path, self.previous_snapshot_path)
        faults.inject("store.snapshot.rename")
        os.replace(temporary, self.snapshot_path)
        faults.inject("store.delta.truncate")
        self._atomic_write(self.delta_path, "")
        # The renames above are not durable until the directory entry is:
        # without this a power loss can resurrect the previous generation
        # even though the publish rename "succeeded".
        self._fsync_directory(self.directory)
        self._mark_persisted(engine)
        self._delta_records = 0
        self.sequence = sequence
        self.snapshot_sequence = sequence
        self.snapshots_written += 1
        # A successful snapshot supersedes whatever was quarantined.
        self.quarantined = False
        return "snapshot"

    def compact(self, engine: VerdictEngine) -> str:
        """Fold the delta log into a fresh snapshot immediately."""
        return self.save_snapshot(engine)

    # -------------------------------------------------------------- replication

    def adopt_epoch(self, number: int, lineage: str) -> None:
        """Adopt a fencing epoch, persisting the sidecar on any advance.

        Rules (the whole fencing contract lives here): an older epoch is a
        deposed writer -- hard :class:`EpochFencedError`; an *equal* epoch
        with a different lineage token means two nodes independently claimed
        the same epoch (consensus-free split brain) -- also a hard error; a
        newer epoch is adopted and persisted durably before this returns.
        """
        if number < self.fencing_epoch:
            raise EpochFencedError(
                f"epoch {number} is behind the locally fenced epoch "
                f"{self.fencing_epoch}",
                local=(self.fencing_epoch, self.fencing_lineage),
                remote=(number, lineage),
            )
        if number == self.fencing_epoch:
            if self.fencing_lineage and lineage and lineage != self.fencing_lineage:
                raise EpochFencedError(
                    f"epoch {number} was claimed by two lineages "
                    f"({self.fencing_lineage!r} here, {lineage!r} remote): "
                    "refusing to merge divergent histories",
                    local=(self.fencing_epoch, self.fencing_lineage),
                    remote=(number, lineage),
                )
            if lineage and not self.fencing_lineage:
                self.fencing_lineage = lineage
                self._persist_fencing()
            return
        self.fencing_epoch = number
        self.fencing_lineage = lineage
        self._persist_fencing()

    def delta_tail(self, from_seq: int, max_records: int = 256) -> list[str]:
        """Complete, CRC-valid delta lines with ``seq > from_seq``, in order.

        This is what the leader ships.  Reading stops at the first torn or
        corrupt line -- safe against a concurrent append, which can only
        ever expose a partial *last* line -- so a shipped batch is always a
        valid contiguous WAL segment.
        """
        if not self.delta_path.is_file():
            return []
        tail: list[str] = []
        for line in self.delta_path.read_text(errors="replace").splitlines():
            if not line.strip():
                continue
            record = decode_checked_record(line)
            seq = record.get("seq") if isinstance(record, dict) else None
            if not isinstance(seq, int):
                break
            if seq <= from_seq:
                continue
            tail.append(line)
            if len(tail) >= max_records:
                break
        return tail

    def ship_append(self, engine: VerdictEngine, line: str) -> dict:
        """Apply one shipped delta record verbatim (the follower apply path).

        Fence-checks the record's epoch, chain-checks its sequence and base
        version against the applied state, appends the *exact* shipped line
        durably, and only then applies it the way a restart would -- so a
        follower's WAL is byte-identical to the leader's and a crash
        mid-apply replays to the same state.  The record's factor events
        run on the factors of the last applied record, not on what the
        follower's own asks grew since.  Raises
        :class:`ReplicationGapError` when the record does not follow on
        (the follower re-bootstraps).
        """
        record = decode_checked_record(line)
        if not isinstance(record, dict):
            raise ReplicationError("shipped delta record is torn or corrupt")
        seq = record.get("seq")
        number = record.get("epoch")
        lineage = record.get("lineage")
        if not isinstance(seq, int) or not isinstance(number, int):
            raise ReplicationError("shipped record lacks replication metadata")
        self.adopt_epoch(number, str(lineage or ""))
        if seq != self.sequence + 1:
            raise ReplicationGapError(
                f"shipped record seq {seq} does not follow the applied "
                f"sequence {self.sequence}"
            )
        if record.get("base_version") != engine.synopsis.version:
            raise ReplicationGapError(
                f"shipped record expects synopsis version "
                f"{record.get('base_version')} but the applied state is at "
                f"{engine.synopsis.version}"
            )
        faults.inject("repl.apply.record", seq=seq)
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.delta_path, "a", encoding="utf-8") as handle:
            handle.write(line.rstrip("\n") + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._rewind_replica(engine)
        self._apply_record(engine, record)
        self.sequence = seq
        self._mark_persisted(engine)
        self._delta_records += 1
        self.deltas_written += 1
        return record

    def install_shipped_snapshot(self, engine: VerdictEngine, document: str) -> dict:
        """Install a leader snapshot document verbatim (follower bootstrap).

        The document is checksum-verified, fence-checked, published through
        the same atomic rotation as a local snapshot (previous generation
        retained, directory fsynced), the delta log is truncated, and the
        engine state is loaded from it -- after which the follower's applied
        sequence is exactly the snapshot's.
        """
        faults.inject("repl.apply.snapshot")
        try:
            payload = decode_snapshot_document(document)
        except ValueError as error:
            raise ReplicationError(f"shipped snapshot is corrupt: {error}") from error
        if not isinstance(payload, dict) or payload.get("format") != STATE_FORMAT_VERSION:
            raise ReplicationError("shipped snapshot has an unsupported format")
        replication = payload.get("replication")
        if not isinstance(replication, dict):
            raise ReplicationError("shipped snapshot lacks replication metadata")
        number = int(replication.get("epoch", 0))
        lineage = str(replication.get("lineage", ""))
        self.adopt_epoch(number, lineage)
        self.directory.mkdir(parents=True, exist_ok=True)
        temporary = self.snapshot_path.with_suffix(".json.tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        if self.snapshot_path.is_file():
            os.replace(self.snapshot_path, self.previous_snapshot_path)
        os.replace(temporary, self.snapshot_path)
        self._atomic_write(self.delta_path, "")
        self._fsync_directory(self.directory)
        engine.load_state_dict(payload["engine"])
        self.sequence = int(replication.get("seq", 0))
        self.snapshot_sequence = self.sequence
        self._mark_persisted(engine)
        self._delta_records = 0
        self.snapshots_written += 1
        self.quarantined = False
        return payload

    def replication_state(self) -> dict:
        """Shipping-side accounting for the replication status endpoint."""
        return {
            "sequence": self.sequence,
            "snapshot_sequence": self.snapshot_sequence,
            "epoch": self.fencing_epoch,
            "lineage": self.fencing_lineage,
            "replica": self.replica,
            "delta_log_length": self._delta_records,
        }

    def _load_fencing_sidecar(self) -> None:
        if not self.epoch_path.is_file():
            return
        try:
            payload = json.loads(self.epoch_path.read_text())
            number = int(payload.get("epoch", 0))
            lineage = str(payload.get("lineage", ""))
        except (OSError, ValueError):
            return  # an unreadable sidecar is equivalent to epoch 0
        self.fencing_epoch = number
        self.fencing_lineage = lineage

    def _persist_fencing(self) -> None:
        """Durably record the fencing epoch before any write carries it."""
        self.directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(
            self.epoch_path,
            json.dumps({"epoch": self.fencing_epoch, "lineage": self.fencing_lineage})
            + "\n",
        )
        self._fsync_directory(self.directory)

    @staticmethod
    def _fsync_directory(path: Path) -> None:
        """Flush a directory entry so a preceding rename survives power loss."""
        faults.inject("store.dir.fsync", directory=str(path))
        try:
            descriptor = os.open(path, os.O_RDONLY)
        except OSError:
            return  # platforms that cannot open directories read-only
        try:
            os.fsync(descriptor)
        finally:
            os.close(descriptor)

    # ----------------------------------------------------------------- helpers

    def _count_delta_records(self) -> int:
        if not self.delta_path.is_file():
            return 0
        return sum(
            1
            for line in self.delta_path.read_text(errors="replace").splitlines()
            if line.strip()
        )

    @staticmethod
    def _atomic_write(path: Path, text: str) -> None:
        """Write-then-rename so readers never observe a partial file."""
        temporary = path.with_suffix(path.suffix + ".tmp")
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)

    def state_snapshot(self) -> dict:
        """Store health/accounting for metrics and health endpoints."""
        return {
            "snapshots_written": self.snapshots_written,
            "deltas_written": self.deltas_written,
            "factor_events_written": self.factor_events_written,
            "delta_log_length": self._delta_records,
            "quarantined": self.quarantined,
            "recovery_notes": list(self.recovery_notes),
            "sequence": self.sequence,
            "fencing_epoch": self.fencing_epoch,
            **self.counters,
        }
