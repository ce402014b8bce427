"""The query synopsis: Verdict's bounded store of past snippets.

Definition 2 of the paper: the query synopsis is the set of
``(q_i, theta_i, beta_i)`` triples for the past snippets.  For each aggregate
function ``g`` it retains at most ``C_g`` snippets (2,000 by default),
replacing the least recently used snippet when full (Section 2.3).  The
synopsis is the only state Verdict keeps -- no input tuples are retained,
which is why its memory footprint stays tiny (Section 8.5).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.snippet import Snippet, SnippetKey
from repro.errors import SynopsisError


@dataclass(frozen=True)
class SynopsisDelta:
    """What changed between two synopsis versions.

    ``appended`` maps each aggregate function to the snippets appended (in
    order) since the base version; ``dirty`` holds the keys that underwent a
    non-append mutation (eviction, data-append adjustment, clear) and whose
    prepared factorisations therefore cannot be extended incrementally.
    """

    appended: dict[SnippetKey, list[Snippet]]
    dirty: frozenset[SnippetKey]


class QuerySynopsis:
    """Bounded, LRU-evicted store of past query snippets grouped by key.

    Every mutation bumps :attr:`version` and is recorded in a bounded change
    log, so the inference layer can ask :meth:`changes_since` for the delta
    between the version it factorised and the current one and extend its
    Cholesky factor with just the appended snippets (O(n^2 k)) instead of
    rebuilding it (O(n^3)).
    """

    _APPEND = "append"
    _DIRTY = "dirty"

    def __init__(self, capacity_per_key: int = 2_000, change_log_limit: int | None = None):
        if capacity_per_key <= 0:
            raise SynopsisError("capacity_per_key must be positive")
        if change_log_limit is not None and change_log_limit <= 0:
            raise SynopsisError("change_log_limit must be positive")
        self.capacity_per_key = capacity_per_key
        self._groups: dict[SnippetKey, OrderedDict[int, Snippet]] = {}
        self._next_id = 0
        self._sequence = 0
        self._version = 0
        # (version, event kind, key, snippet-or-None), oldest first.  Bounded:
        # deltas older than the retained window report as unknown and callers
        # fall back to a full rebuild.
        self._log: deque[tuple[int, str, SnippetKey, Snippet | None]] = deque()
        if change_log_limit is None:
            change_log_limit = max(4 * capacity_per_key, 1_024)
        self._log_limit = change_log_limit
        self._log_floor = 0
        # Per key, the id tuple last verified to be the whole group in group
        # order (see mark_used); dropped whenever that order or membership
        # changes.  Derived state, never serialised.
        self._whole_group: dict[SnippetKey, tuple[int, ...]] = {}

    # ----------------------------------------------------------------- content

    def add(self, snippet: Snippet) -> Snippet:
        """Insert a snippet, evicting the least recently used one if needed.

        Returns the stored snippet (with its assigned identifiers).
        """
        group = self._groups.setdefault(snippet.key, OrderedDict())
        self._whole_group.pop(snippet.key, None)
        self._sequence += 1
        stored = snippet.with_identity(self._next_id, self._sequence)
        self._next_id += 1
        group[stored.snippet_id] = stored
        group.move_to_end(stored.snippet_id)
        evicted = False
        while len(group) > self.capacity_per_key:
            group.popitem(last=False)
            evicted = True
        self._version += 1
        self._record(self._APPEND, stored.key, stored)
        if evicted:
            self._record(self._DIRTY, stored.key)
        return stored

    def restore(self, snippet: Snippet) -> Snippet:
        """Re-insert a snippet that already carries its synopsis identity.

        Used by the persistent store when replaying a delta log: the logged
        snippets keep the ids and LRU sequence numbers assigned by the
        original :meth:`add` calls, so a replayed synopsis converges to the
        same ids, versions, and group order as the process that wrote the
        log.  Internal counters are advanced past the restored identity.
        """
        if snippet.snippet_id < 0 or snippet.sequence < 0:
            raise SynopsisError("restore() requires a snippet with assigned identity")
        group = self._groups.setdefault(snippet.key, OrderedDict())
        self._whole_group.pop(snippet.key, None)
        group[snippet.snippet_id] = snippet
        group.move_to_end(snippet.snippet_id)
        self._next_id = max(self._next_id, snippet.snippet_id + 1)
        self._sequence = max(self._sequence, snippet.sequence)
        evicted = False
        while len(group) > self.capacity_per_key:
            group.popitem(last=False)
            evicted = True
        self._version += 1
        self._record(self._APPEND, snippet.key, snippet)
        if evicted:
            self._record(self._DIRTY, snippet.key)
        return snippet

    def snippets_for(self, key: SnippetKey) -> list[Snippet]:
        """Past snippets for one aggregate function, oldest-used first."""
        group = self._groups.get(key)
        if not group:
            return []
        return list(group.values())

    def mark_used(self, key: SnippetKey, snippet_ids: Iterable[int]) -> None:
        """Refresh the LRU position of the snippets that inference just used.

        Touching the whole group in its current order -- what the engine
        does after every inference, since it conditions on every past
        snippet of the key -- moves each snippet to the end in turn and so
        leaves the eviction order as it was.  That case only advances the
        sequence counter by what the per-snippet loop would have consumed
        (later ``add`` calls get the same numbers either way) and keeps the
        snippets' own, still correctly ordered, sequence stamps.  It is
        recognised in constant time when the caller passes the same id
        *tuple* again and the group has not changed in between; the first
        touch after a change verifies the ids with one list comparison.
        """
        group = self._groups.get(key)
        if not group:
            return
        if not isinstance(snippet_ids, tuple):
            snippet_ids = tuple(snippet_ids)
        if snippet_ids is self._whole_group.get(key) or (
            len(snippet_ids) == len(group) and snippet_ids == tuple(group)
        ):
            self._whole_group[key] = snippet_ids
            self._sequence += len(group)
            return
        self._whole_group.pop(key, None)
        for snippet_id in snippet_ids:
            if snippet_id in group:
                self._sequence += 1
                snippet = group[snippet_id].with_identity(snippet_id, self._sequence)
                group[snippet_id] = snippet
                group.move_to_end(snippet_id)

    def keys(self) -> list[SnippetKey]:
        return list(self._groups)

    def count(self, key: SnippetKey | None = None) -> int:
        """Number of stored snippets (for one key, or in total)."""
        if key is not None:
            return len(self._groups.get(key, ()))
        return sum(len(group) for group in self._groups.values())

    def clear(self, key: SnippetKey | None = None) -> None:
        """Drop all snippets (for one key, or everywhere)."""
        affected = list(self._groups) if key is None else [key]
        if key is None:
            self._groups.clear()
            self._whole_group.clear()
        else:
            self._groups.pop(key, None)
            self._whole_group.pop(key, None)
        self._version += 1
        for dirty_key in affected:
            self._record(self._DIRTY, dirty_key)

    # ---------------------------------------------------------------- mutation

    def transform(self, key: SnippetKey, function: Callable[[Snippet], Snippet]) -> int:
        """Apply ``function`` to every snippet of one key (keeps identifiers).

        Used by the data-append adjustment (Appendix D) to shift answers and
        inflate errors in place.  Returns the number of snippets transformed.
        """
        group = self._groups.get(key)
        if not group:
            return 0
        for snippet_id, snippet in list(group.items()):
            updated = function(snippet)
            if updated.key != key:
                raise SynopsisError("transform must not change a snippet's key")
            group[snippet_id] = updated.with_identity(snippet_id, snippet.sequence)
        self._version += 1
        self._record(self._DIRTY, key)
        return len(group)

    def transform_all(self, function: Callable[[Snippet], Snippet]) -> int:
        """Apply ``function`` to every snippet of every key."""
        return sum(self.transform(key, function) for key in list(self._groups))

    # -------------------------------------------------------------- change log

    def _record(
        self, kind: str, key: SnippetKey, snippet: Snippet | None = None
    ) -> None:
        """Append one event to the bounded change log."""
        self._log.append((self._version, kind, key, snippet))
        while len(self._log) > self._log_limit:
            trimmed_version, _, _, _ = self._log.popleft()
            # Deltas based before the trimmed event are no longer complete.
            self._log_floor = max(self._log_floor, trimmed_version)

    def changes_since(self, version: int) -> SynopsisDelta | None:
        """The delta between ``version`` and the current state.

        Returns ``None`` when ``version`` predates the retained change-log
        window (or the synopsis itself), in which case the caller must treat
        everything as changed and rebuild from scratch.  Appends that land on
        a key which later turns dirty within the same delta are reported only
        through ``dirty`` -- an extension would bake evicted or transformed
        snippets into the factor.
        """
        if version < self._log_floor or version > self._version:
            return None
        # The log is version-sorted; walk backwards and stop at the first
        # already-seen event, so the cost is O(delta) rather than O(log).
        recent: list[tuple[str, SnippetKey, Snippet | None]] = []
        for event_version, kind, key, snippet in reversed(self._log):
            if event_version <= version:
                break
            recent.append((kind, key, snippet))
        appended: dict[SnippetKey, list[Snippet]] = {}
        dirty: set[SnippetKey] = set()
        for kind, key, snippet in reversed(recent):
            if kind == self._APPEND and snippet is not None:
                appended.setdefault(key, []).append(snippet)
            else:
                dirty.add(key)
        for key in dirty:
            appended.pop(key, None)
        return SynopsisDelta(appended=appended, dirty=frozenset(dirty))

    # ----------------------------------------------------------- serialization

    def state_dict(self) -> dict:
        """JSON-safe snapshot of the full synopsis state.

        Group order (the LRU order), snippet identities, and the bounded
        change log are all preserved exactly.  Persisting the log matters for
        exact resumption: a restored engine holding a factorisation prepared
        at an older synopsis version can then still answer
        :meth:`changes_since` for that version and *extend* the factor
        incrementally -- the same O(n^2 k) path, producing the same
        floating-point bits, as the process that never stopped.

        An append event stores its snippet's id, not the snippet: the groups
        hold it already.  An id the groups no longer hold (evicted, cleared)
        and a snippet transformed since are both followed by a ``dirty``
        event for the key, so :meth:`changes_since` never extends with them.
        """
        return {
            "capacity_per_key": self.capacity_per_key,
            "change_log_limit": self._log_limit,
            "next_id": self._next_id,
            "sequence": self._sequence,
            "version": self._version,
            "log_floor": self._log_floor,
            "groups": [
                {
                    "key": key.to_state(),
                    "snippets": [snippet.to_state() for snippet in group.values()],
                }
                for key, group in self._groups.items()
            ],
            "log": [
                {
                    "version": version,
                    "kind": kind,
                    "key": key.to_state(),
                    "snippet_id": None if snippet is None else snippet.snippet_id,
                }
                for version, kind, key, snippet in self._log
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "QuerySynopsis":
        """Rebuild a synopsis from :meth:`state_dict` output."""
        synopsis = cls(
            capacity_per_key=state["capacity_per_key"],
            change_log_limit=state["change_log_limit"],
        )
        for group_state in state["groups"]:
            key = SnippetKey.from_state(group_state["key"])
            group: OrderedDict[int, Snippet] = OrderedDict()
            for snippet_state in group_state["snippets"]:
                snippet = Snippet.from_state(snippet_state)
                if snippet.key != key:
                    raise SynopsisError("snapshot group key does not match its snippets")
                group[snippet.snippet_id] = snippet
            synopsis._groups[key] = group
        synopsis._next_id = state["next_id"]
        synopsis._sequence = state["sequence"]
        synopsis._version = state["version"]
        synopsis._log_floor = state["log_floor"]
        for event in state["log"]:
            key = SnippetKey.from_state(event["key"])
            snippet_id = event["snippet_id"]
            snippet = (
                None
                if snippet_id is None
                else synopsis._groups.get(key, {}).get(snippet_id)
            )
            synopsis._log.append((event["version"], event["kind"], key, snippet))
        return synopsis

    # ------------------------------------------------------------------ stats

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (used for cache
        invalidation by the inference layer)."""
        return self._version

    def memory_footprint_bytes(self) -> int:
        """Rough memory footprint estimate of the synopsis contents.

        The paper reports 15-25 KB per query; here we count the per-snippet
        payload (region constraints plus a few floats), which is what the
        Table 5 / Section 8.5 style reporting needs.
        """
        total = 0
        for group in self._groups.values():
            for snippet in group.values():
                total += 64  # answer, error, ids, key reference
                total += 48 * len(snippet.region.numeric_ranges)
                for constraint in snippet.region.categorical_constraints:
                    total += 48 + 16 * constraint.size
        return total

    def __len__(self) -> int:
        return self.count()
