"""Unit tests for snippets and the query synopsis."""

import pytest

from repro.core.regions import NumericRange, Region
from repro.core.snippet import AggregateKind, Snippet, SnippetKey
from repro.core.synopsis import QuerySynopsis
from repro.errors import SynopsisError


def make_snippet(key: SnippetKey, low: float, high: float, answer: float = 1.0, error: float = 0.1):
    region = Region(numeric_ranges=(NumericRange("x", low, high),))
    return Snippet(key=key, region=region, raw_answer=answer, raw_error=error)


@pytest.fixture()
def avg_key():
    return SnippetKey(kind=AggregateKind.AVG, table="t", attribute="m")


@pytest.fixture()
def freq_key():
    return SnippetKey(kind=AggregateKind.FREQ, table="t")


class TestSnippetKey:
    def test_avg_requires_attribute(self):
        with pytest.raises(ValueError):
            SnippetKey(kind=AggregateKind.AVG, table="t")

    def test_freq_rejects_attribute(self):
        with pytest.raises(ValueError):
            SnippetKey(kind=AggregateKind.FREQ, table="t", attribute="m")

    def test_labels(self, avg_key, freq_key):
        assert "AVG(m)" in avg_key.label
        assert "FREQ(*)" in freq_key.label

    def test_keys_with_different_residuals_differ(self):
        base = SnippetKey(kind=AggregateKind.FREQ, table="t")
        other = SnippetKey(kind=AggregateKind.FREQ, table="t", residual=frozenset({"x"}))
        assert base != other


class TestSnippet:
    def test_negative_error_rejected(self, avg_key):
        with pytest.raises(ValueError):
            make_snippet(avg_key, 0, 1, error=-0.1)

    def test_with_adjustment(self, avg_key):
        snippet = make_snippet(avg_key, 0, 1, answer=10.0, error=0.3)
        adjusted = snippet.with_adjustment(answer_shift=1.0, extra_variance=0.16)
        assert adjusted.raw_answer == pytest.approx(11.0)
        assert adjusted.raw_error == pytest.approx((0.09 + 0.16) ** 0.5)
        with pytest.raises(ValueError):
            snippet.with_adjustment(0.0, -1.0)

    def test_with_identity(self, avg_key):
        snippet = make_snippet(avg_key, 0, 1)
        stored = snippet.with_identity(5, 7)
        assert stored.snippet_id == 5 and stored.sequence == 7


class TestSynopsis:
    def test_add_and_retrieve(self, avg_key, freq_key):
        synopsis = QuerySynopsis(capacity_per_key=10)
        synopsis.add(make_snippet(avg_key, 0, 1))
        synopsis.add(make_snippet(avg_key, 1, 2))
        synopsis.add(make_snippet(freq_key, 0, 1))
        assert synopsis.count(avg_key) == 2
        assert synopsis.count(freq_key) == 1
        assert synopsis.count() == 3
        assert len(synopsis) == 3
        assert set(synopsis.keys()) == {avg_key, freq_key}

    def test_capacity_evicts_least_recently_used(self, avg_key):
        synopsis = QuerySynopsis(capacity_per_key=3)
        stored = [synopsis.add(make_snippet(avg_key, i, i + 1, answer=i)) for i in range(3)]
        # Touch the oldest snippet so it becomes the most recently used.
        synopsis.mark_used(avg_key, [stored[0].snippet_id])
        synopsis.add(make_snippet(avg_key, 10, 11, answer=10))
        answers = [snippet.raw_answer for snippet in synopsis.snippets_for(avg_key)]
        # Snippet with answer 1 (the true LRU) was evicted; 0 survived.
        assert 0.0 in answers
        assert 1.0 not in answers
        assert len(answers) == 3

    @staticmethod
    def _rewrite_loop_touch(synopsis, key, snippet_ids):
        """The per-snippet LRU touch, spelled out: the reference that the
        whole-group shortcut of ``mark_used`` must be indistinguishable from."""
        group = synopsis._groups[key]
        for snippet_id in snippet_ids:
            synopsis._sequence += 1
            group[snippet_id] = group[snippet_id].with_identity(
                snippet_id, synopsis._sequence
            )
            group.move_to_end(snippet_id)

    def test_whole_group_touch_keeps_the_rewrite_loops_eviction_order(self, avg_key):
        fast, reference = QuerySynopsis(capacity_per_key=4), QuerySynopsis(capacity_per_key=4)
        for synopsis in (fast, reference):
            for i in range(4):
                synopsis.add(make_snippet(avg_key, i, i + 1, answer=i))
            # A partial touch first, so group order differs from id order.
            synopsis.mark_used(avg_key, [1])
        whole_group = [s.snippet_id for s in fast.snippets_for(avg_key)]
        assert whole_group == [0, 2, 3, 1]
        before = fast.snippets_for(avg_key)
        for _ in range(3):
            fast.mark_used(avg_key, whole_group)
            self._rewrite_loop_touch(reference, avg_key, whole_group)
        # Constant time means exactly that: no snippet was rebuilt.
        assert all(a is b for a, b in zip(fast.snippets_for(avg_key), before))
        assert fast._sequence == reference._sequence

        # Overflow the capacity: both evict the same victims in the same
        # order, and hand the newcomers the same sequence numbers.
        for i in range(10, 13):
            added = [
                synopsis.add(make_snippet(avg_key, i, i + 1, answer=i))
                for synopsis in (fast, reference)
            ]
            assert added[0] == added[1]
            assert [s.snippet_id for s in fast.snippets_for(avg_key)] == [
                s.snippet_id for s in reference.snippets_for(avg_key)
            ]
        assert [s.raw_answer for s in fast.snippets_for(avg_key)] == [1.0, 10.0, 11.0, 12.0]

    def test_reordered_or_partial_touch_still_reorders(self, avg_key):
        synopsis = QuerySynopsis(capacity_per_key=3)
        for i in range(3):
            synopsis.add(make_snippet(avg_key, i, i + 1, answer=i))
        # Same ids, different order: not the whole-group case.
        synopsis.mark_used(avg_key, [2, 1, 0])
        assert [s.snippet_id for s in synopsis.snippets_for(avg_key)] == [2, 1, 0]
        assert [s.sequence for s in synopsis.snippets_for(avg_key)] == [4, 5, 6]
        # A generator of a strict subset (plus an id that is long gone).
        synopsis.mark_used(avg_key, (i for i in (2, 99)))
        assert [s.snippet_id for s in synopsis.snippets_for(avg_key)] == [1, 0, 2]
        synopsis.add(make_snippet(avg_key, 10, 11, answer=10))
        assert [s.raw_answer for s in synopsis.snippets_for(avg_key)] == [0.0, 2.0, 10.0]

    def test_remembered_whole_group_tuple_is_forgotten_when_the_group_changes(self, avg_key):
        synopsis = QuerySynopsis(capacity_per_key=3)
        for i in range(3):
            synopsis.add(make_snippet(avg_key, i, i + 1, answer=i))
        whole = (0, 1, 2)
        synopsis.mark_used(avg_key, whole)
        synopsis.mark_used(avg_key, whole)  # recognised by identity now
        assert [s.sequence for s in synopsis.snippets_for(avg_key)] == [1, 2, 3]
        # A partial touch reorders the group: the same tuple is no longer
        # the group order and must go through the loop again.
        synopsis.mark_used(avg_key, [0])
        synopsis.mark_used(avg_key, whole)
        assert [s.snippet_id for s in synopsis.snippets_for(avg_key)] == [0, 1, 2]
        assert [s.sequence for s in synopsis.snippets_for(avg_key)] == [11, 12, 13]
        # An eviction keeps the length but not the membership.
        synopsis.mark_used(avg_key, whole)
        synopsis.add(make_snippet(avg_key, 10, 11, answer=10))
        synopsis.mark_used(avg_key, whole)
        assert [s.snippet_id for s in synopsis.snippets_for(avg_key)] == [3, 1, 2]

    def test_capacity_validation(self):
        with pytest.raises(SynopsisError):
            QuerySynopsis(capacity_per_key=0)

    def test_version_bumps_on_add_and_clear(self, avg_key):
        synopsis = QuerySynopsis()
        version = synopsis.version
        synopsis.add(make_snippet(avg_key, 0, 1))
        assert synopsis.version > version
        version = synopsis.version
        synopsis.mark_used(avg_key, [0])
        assert synopsis.version == version  # marking used does not invalidate
        synopsis.clear(avg_key)
        assert synopsis.version > version
        assert synopsis.count(avg_key) == 0

    def test_transform_adjusts_in_place(self, avg_key):
        synopsis = QuerySynopsis()
        synopsis.add(make_snippet(avg_key, 0, 1, answer=5.0, error=1.0))
        transformed = synopsis.transform(
            avg_key, lambda snippet: snippet.with_adjustment(2.0, 0.0)
        )
        assert transformed == 1
        assert synopsis.snippets_for(avg_key)[0].raw_answer == pytest.approx(7.0)

    def test_transform_cannot_change_key(self, avg_key, freq_key):
        synopsis = QuerySynopsis()
        synopsis.add(make_snippet(avg_key, 0, 1))

        def change_key(snippet):
            return Snippet(
                key=freq_key, region=snippet.region, raw_answer=0.1, raw_error=0.1
            )

        with pytest.raises(SynopsisError):
            synopsis.transform(avg_key, change_key)

    def test_transform_all(self, avg_key, freq_key):
        synopsis = QuerySynopsis()
        synopsis.add(make_snippet(avg_key, 0, 1))
        synopsis.add(make_snippet(freq_key, 0, 1))
        assert synopsis.transform_all(lambda s: s.with_adjustment(0.0, 0.0)) == 2

    def test_memory_footprint_is_small_and_grows(self, avg_key):
        synopsis = QuerySynopsis()
        empty = synopsis.memory_footprint_bytes()
        for i in range(50):
            synopsis.add(make_snippet(avg_key, i, i + 1))
        grown = synopsis.memory_footprint_bytes()
        assert grown > empty
        assert grown < 1_000_000  # far below retaining any input tuples

    def test_clear_all(self, avg_key, freq_key):
        synopsis = QuerySynopsis()
        synopsis.add(make_snippet(avg_key, 0, 1))
        synopsis.add(make_snippet(freq_key, 0, 1))
        synopsis.clear()
        assert synopsis.count() == 0
