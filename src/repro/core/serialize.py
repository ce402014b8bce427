"""Exact JSON-safe serialisation helpers for the persistent synopsis store.

The serving layer persists learned state (the query synopsis, learned
correlation parameters, and prepared covariance factorisations) so a
restarted service resumes *exactly* as smart as it stopped.  "Exactly" is
meant bit-for-bit: a reloaded engine must produce answers identical to the
never-stopped one, which rules out any lossy round-trip.

* Python floats survive ``json`` round-trips exactly (the encoder emits the
  shortest string that parses back to the same IEEE-754 double), so scalar
  statistics are stored as plain JSON numbers.
* NumPy arrays are stored as base64 of their raw little-endian bytes together
  with dtype and shape (:func:`encode_array` / :func:`decode_array`), which is
  both exact and compact -- factor matrices dominate snapshot size and base64
  beats a JSON list of floats by ~4x.
* Snippet regions may constrain categorical attributes with mixed value types
  (ints from numeric IN-lists, strings from categorical equality); frozensets
  are stored as sorted lists with a type-aware order so equal sets always
  serialise identically (:func:`encode_values`).

* Every delta-log line is wrapped in a CRC32 envelope and every snapshot
  carries a checksum footer; the decoders accept only that format, so a line
  without its envelope or a snapshot without its footer reads as corrupt.

All functions here are dependency-free building blocks; the composition into
snapshot files lives in :mod:`repro.serve.store`.
"""

from __future__ import annotations

import base64
import json
import zlib
from typing import Any, Iterable, Union

import numpy as np

Value = Union[int, float, str]

#: Bumped when the on-disk layout of encoded state changes incompatibly.
STATE_FORMAT_VERSION = 1


def encode_array(array: np.ndarray | None) -> dict[str, Any] | None:
    """Encode a NumPy array as ``{dtype, shape, data}`` with base64 payload."""
    if array is None:
        return None
    contiguous = np.ascontiguousarray(array)
    little = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": contiguous.dtype.str.lstrip("<>=|"),
        "shape": list(contiguous.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(state: dict[str, Any] | None) -> np.ndarray | None:
    """Inverse of :func:`encode_array` (byte-exact)."""
    if state is None:
        return None
    dtype = np.dtype(state["dtype"]).newbyteorder("<")
    array = np.frombuffer(base64.b64decode(state["data"]), dtype=dtype)
    return array.reshape(tuple(state["shape"])).astype(dtype.newbyteorder("="), copy=True)


def encode_values(values: Iterable[Value]) -> list[Value]:
    """Deterministically ordered list for a set of mixed-type values."""
    return sorted(values, key=lambda value: (type(value).__name__, repr(value)))


# --------------------------------------------------------------------------- #
# Checksummed on-disk records
# --------------------------------------------------------------------------- #
#
# The store's crash story depends on telling "this record was never finished"
# (a torn tail -- recover by truncating) apart from "this record was damaged"
# (bit rot, an editor, a bad disk -- recover by truncating *and counting*).
# JSON well-formedness alone only catches the first; every persisted record
# therefore carries a CRC32 of its canonical JSON encoding, and snapshots
# carry a whole-body checksum footer.


def canonical_json(payload: Any) -> str:
    """The canonical JSON encoding checksums are computed over.

    Sorted keys and tight separators: two structurally equal payloads always
    produce identical bytes, independent of dict insertion order.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def checksum_text(text: str) -> int:
    """CRC32 (unsigned) of UTF-8 encoded ``text``."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def encode_checked_record(record: Any) -> str:
    """One delta-log line: the record wrapped with its CRC32 (no newline)."""
    body = canonical_json(record)
    return json.dumps(
        {"crc": checksum_text(body), "record": record}, separators=(",", ":")
    )


def decode_checked_record(line: str) -> Any | None:
    """Inverse of :func:`encode_checked_record`; ``None`` when corrupt.

    A line without the ``crc`` envelope, or whose CRC does not match its
    record's canonical re-encoding -- a flipped byte, a spliced line -- is
    reported as corrupt, never partially applied.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(payload, dict):
        return None
    record = payload.get("record")
    if record is None or not isinstance(payload.get("crc"), int):
        return None
    if checksum_text(canonical_json(record)) != payload["crc"]:
        return None
    return record


#: Key of the snapshot checksum footer line.
SNAPSHOT_FOOTER_KEY = "snapshot_crc"


def encode_snapshot_document(payload: Any) -> str:
    """A snapshot file: one JSON body line plus a checksum footer line.

    The footer CRC covers the exact bytes of the body line, so *any*
    corruption of the body -- truncation, a flipped byte, an interleaved
    write -- is detected before a single field is trusted.
    """
    body = json.dumps(payload)
    footer = json.dumps({SNAPSHOT_FOOTER_KEY: checksum_text(body)})
    return body + "\n" + footer + "\n"


def decode_snapshot_document(text: str) -> Any:
    """Inverse of :func:`encode_snapshot_document`.

    Raises ``ValueError`` on any parse or checksum failure, a missing
    footer included: nothing in the body is trusted unverified.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("snapshot file lacks its checksum footer")
    body, footer_line = lines[0], lines[-1]
    try:
        footer = json.loads(footer_line)
    except json.JSONDecodeError as error:
        raise ValueError(f"unparsable snapshot footer: {error}") from error
    if not isinstance(footer, dict) or SNAPSHOT_FOOTER_KEY not in footer:
        raise ValueError("snapshot footer lacks a checksum")
    expected = footer[SNAPSHOT_FOOTER_KEY]
    actual = checksum_text(body)
    if actual != expected:
        raise ValueError(
            f"snapshot checksum mismatch (stored {expected}, computed {actual})"
        )
    return json.loads(body)
