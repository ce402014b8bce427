"""The persisted forms of a factor, a change log and a snapshot document.

A factor is stored as its packed lower triangle; every factor in memory is
clean (zero strict upper triangle), so the packed round trip gives back the
same bytes.  The synopsis change log stores appended snippets by id, and a
snapshot document is read and written as bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core import linalg
from repro.core.regions import NumericRange, Region
from repro.core.serialize import (
    decode_lower_triangle,
    decode_snapshot_document,
    encode_lower_triangle,
    encode_snapshot_document,
)
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.core.synopsis import QuerySynopsis


def spd(order: int, seed: int) -> np.ndarray:
    """A well-conditioned symmetric positive-definite matrix."""
    rng = np.random.default_rng(seed)
    points = np.sort(rng.uniform(0.0, 10.0, order))
    matrix = np.exp(-((points[:, None] - points[None, :]) ** 2) / 4.0)
    return matrix + np.diag(rng.uniform(0.1, 0.5, order))


def grow(cho, matrix: np.ndarray, order: int, rows: int):
    """Extend ``cho`` (the factor of ``matrix[:order, :order]``) by ``rows``."""
    block = slice(order, order + rows)
    return linalg.extend_cholesky(
        cho, matrix[:order, block], matrix[block, block], clean=True
    )[0]


def round_trip(factor: np.ndarray) -> np.ndarray:
    state = json.loads(json.dumps(encode_lower_triangle(factor)))
    return decode_lower_triangle(state)


@pytest.mark.parametrize("order", [1, 2, 300])
class TestPackedFactor:
    def test_fresh_factor_is_clean_and_round_trips(self, order):
        (factor, lower), _ = linalg.robust_cholesky(spd(order, 1), 1e-9)
        assert lower
        assert not np.triu(factor, k=1).any()
        restored = round_trip(factor)
        assert restored.flags.f_contiguous and restored.shape == (order, order)
        assert restored.tobytes() == factor.tobytes()

    def test_in_place_grown_factor_round_trips(self, order):
        matrix = spd(order + 2, 2)
        cho, _ = linalg.robust_cholesky(matrix[:order, :order])
        first = grow(cho, matrix, order, 1)
        second = grow(first, matrix, order + 1, 1)
        assert second.buffer is first.buffer  # grown in place
        restored = round_trip(second[0])
        assert restored.tobytes() == second[0].tobytes()

    def test_restored_then_extended_factor_round_trips(self, order):
        matrix = spd(order + 2, 3)
        cho, _ = linalg.robust_cholesky(matrix[:order, :order])
        grown = grow(cho, matrix, order, 1)
        restored = (round_trip(grown[0]), True)
        extended = grow(restored, matrix, order + 1, 1)
        never_stopped = grow(grown, matrix, order + 1, 1)
        assert extended[0].tobytes() == never_stopped[0].tobytes()
        assert round_trip(extended[0]).tobytes() == extended[0].tobytes()


def test_packed_factor_size_is_half_a_square():
    order = 300
    (factor, _), _ = linalg.robust_cholesky(spd(order, 4))
    data = encode_lower_triangle(factor)["data"]
    assert len(data) <= math.ceil(order * (order + 1) / 2 * 8 * 4 / 3)


def test_packed_factor_of_the_wrong_length_is_refused():
    (factor, _), _ = linalg.robust_cholesky(spd(3, 5))
    state = encode_lower_triangle(factor)
    state["order"] = 4
    with pytest.raises(ValueError):
        decode_lower_triangle(state)


class TestSnapshotDocument:
    def test_bytes_round_trip(self):
        payload = {"format": 2, "values": [1.5, None, "x"]}
        body, footer = encode_snapshot_document(payload)
        assert b"\n" not in body and footer.startswith(b"\n") and footer.endswith(b"\n")
        assert decode_snapshot_document(body + footer) == payload

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda body, footer: body + b"\n", "lacks its checksum footer"),
            (lambda body, footer: body[:-1] + footer, "checksum mismatch"),
            (lambda body, footer: body + b"\n{not json}\n", "unparsable snapshot footer"),
            (lambda body, footer: body + b'\n{"crc": 1}\n', "lacks a checksum"),
        ],
    )
    def test_damage_is_refused_with_its_reason(self, damage, message):
        body, footer = encode_snapshot_document({"format": 2})
        with pytest.raises(ValueError, match=message):
            decode_snapshot_document(damage(body, footer))


# ------------------------------------------------------------------ change log

KEY = SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")
OTHER = SnippetKey(kind=AggregateKind.FREQ, table="t")


def snippet(key: SnippetKey, low: float, answer: float = 1.0) -> Snippet:
    region = Region(numeric_ranges=(NumericRange("x", low, low + 2.0),))
    return Snippet(key=key, region=region, raw_answer=answer, raw_error=0.1)


def delta_view(delta):
    """What an extension reads of a delta: ids, regions and raw numbers."""
    if delta is None:
        return None
    return (
        {
            key: [(s.snippet_id, s.region, s.raw_answer, s.raw_error) for s in snippets]
            for key, snippets in delta.appended.items()
        },
        delta.dirty,
    )


def test_change_log_by_id_answers_every_delta_as_before():
    synopsis = QuerySynopsis(capacity_per_key=6)
    for i in range(3):
        synopsis.add(snippet(KEY, i))
        synopsis.add(snippet(OTHER, i))
    synopsis.mark_used(KEY, [s.snippet_id for s in synopsis.snippets_for(KEY)])
    synopsis.mark_used(OTHER, [synopsis.snippets_for(OTHER)[0].snippet_id])
    for i in range(3, 7):  # the last one evicts KEY's oldest snippet
        synopsis.add(snippet(KEY, i, answer=float(i)))
    synopsis.transform(OTHER, lambda s: s.with_adjustment(0.5, 0.2))
    synopsis.add(snippet(OTHER, 9))
    plain = synopsis.version
    synopsis.add(snippet(OTHER, 10))
    synopsis.add(snippet(OTHER, 11))

    state = json.loads(json.dumps(synopsis.state_dict()))
    assert all("snippet" not in event for event in state["log"])
    appends = [event for event in state["log"] if event["kind"] == "append"]
    assert all(isinstance(event["snippet_id"], int) for event in appends)
    restored = QuerySynopsis.from_state(state)

    evicted = {e["snippet_id"] for e in appends} - {
        s.snippet_id for key in (KEY, OTHER) for s in synopsis.snippets_for(key)
    }
    assert evicted, "the history must evict an appended snippet"
    for version in range(synopsis.version + 2):
        assert delta_view(restored.changes_since(version)) == delta_view(
            synopsis.changes_since(version)
        ), version
    # A delta that crosses no eviction or adjustment hands back the snippets
    # themselves, identities included.
    delta = restored.changes_since(plain)
    assert [s.raw_answer for s in delta.appended[OTHER]] == [1.0, 1.0] and not delta.dirty
    assert delta == synopsis.changes_since(plain)
