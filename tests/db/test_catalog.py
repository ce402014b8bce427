"""Unit tests for the catalog and fact-dimension joins."""

import numpy as np
import pytest

from repro.db.catalog import Catalog, JoinCache, match_foreign_keys
from repro.db.schema import (
    ColumnKind,
    Schema,
    categorical_dimension,
    key,
    measure,
    numeric_dimension,
)
from repro.db.table import Table
from repro.errors import CatalogError
from repro.sqlparser import ast
from repro.sqlparser.parser import parse_query


class TestCatalogBasics:
    def test_add_and_lookup(self, tiny_table):
        catalog = Catalog()
        catalog.add_table(tiny_table, fact=True)
        assert catalog.has_table("tiny")
        assert catalog.is_fact_table("tiny")
        assert catalog.cardinality("tiny") == 5

    def test_duplicate_table_rejected(self, tiny_table):
        catalog = Catalog()
        catalog.add_table(tiny_table)
        with pytest.raises(CatalogError):
            catalog.add_table(tiny_table)

    def test_unknown_table(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.table("missing")

    def test_replace_table(self, tiny_table):
        catalog = Catalog()
        catalog.add_table(tiny_table)
        replacement = tiny_table.head(2)
        catalog.replace_table(replacement)
        assert catalog.cardinality("tiny") == 2
        with pytest.raises(CatalogError):
            catalog.replace_table(tiny_table.renamed("nope"))

    def test_foreign_key_requires_existing_columns(self, star_catalog):
        with pytest.raises(CatalogError):
            star_catalog.add_foreign_key("orders", "missing", "stores", "store_id")

    def test_foreign_key_lookup(self, star_catalog):
        assert len(star_catalog.foreign_keys("orders")) == 1
        assert star_catalog.find_foreign_key("orders", "stores") is not None
        assert star_catalog.find_foreign_key("orders", "nothing") is None

    def test_of_constructor(self, tiny_table):
        catalog = Catalog.of([tiny_table], fact_tables=["tiny"])
        assert catalog.is_fact_table("tiny")


class TestJoins:
    def test_denormalize_star_schema(self, star_catalog):
        query = parse_query(
            "SELECT AVG(amount) FROM orders JOIN stores ON store_id = store_id"
        )
        joined = star_catalog.denormalize(query)
        assert joined.num_rows == 6
        assert "region" in joined.schema
        # Foreign-key join keeps fact columns intact.
        assert list(joined.column("amount")) == [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        # Region values follow the store assignment of each order.
        assert list(joined.column("region")) == ["east", "west", "east", "west", "east", "east"]
        # The join gathers the dimension's codes: its dictionary is shared.
        assert joined.dictionary("region") is star_catalog.table("stores").dictionary("region")

    def test_join_drops_unmatched_rows(self, star_catalog):
        # Point one order at a store that does not exist.
        orders = star_catalog.table("orders")
        broken = orders.with_column(key("store_id"), [0, 1, 0, 1, 2, 99])
        clause = ast.JoinClause(
            table="stores",
            left_column=ast.ColumnRef("store_id"),
            right_column=ast.ColumnRef("store_id"),
        )
        joined = star_catalog.join(broken, clause)
        assert joined.num_rows == 5

    def test_join_with_unresolvable_columns(self, star_catalog):
        clause = ast.JoinClause(
            table="stores",
            left_column=ast.ColumnRef("nonexistent"),
            right_column=ast.ColumnRef("also_missing"),
        )
        with pytest.raises(CatalogError):
            star_catalog.join(star_catalog.table("orders"), clause)

    def test_chained_joins(self):
        """Fact -> dim1 -> dim2 chains resolve because the first join widens the base."""
        fact = Table(
            "f",
            Schema.of([key("k1"), measure("m")]),
            {"k1": [0, 1], "m": [1.0, 2.0]},
        )
        dim1 = Table(
            "d1",
            Schema.of([key("k1"), key("k2")]),
            {"k1": [0, 1], "k2": [10, 11]},
        )
        dim2 = Table(
            "d2",
            Schema.of([key("k2"), categorical_dimension("label")]),
            {"k2": [10, 11], "label": ["a", "b"]},
        )
        catalog = Catalog.of([fact, dim1, dim2], fact_tables=["f"])
        query = parse_query(
            "SELECT label, SUM(m) FROM f JOIN d1 ON k1 = k1 JOIN d2 ON k2 = k2 GROUP BY label"
        )
        joined = catalog.denormalize(query)
        assert sorted(joined.column("label")) == ["a", "b"]


class TestMatchForeignKeys:
    def test_numeric_keys_match_first_occurrence(self):
        left = np.asarray([3, 1, 7, 3], dtype=np.int64)
        right = np.asarray([1, 3, 3, 5], dtype=np.int64)
        # Duplicate right key 3: the first occurrence (row 1) wins, exactly
        # like the legacy first-write dict index.
        assert list(match_foreign_keys(left, right)) == [1, 0, -1, 1]

    def test_object_keys_fall_back_to_hash_probe(self):
        left = np.asarray(["b", "a", "z"], dtype=object)
        right = np.asarray(["a", "b", "b"], dtype=object)
        assert list(match_foreign_keys(left, right)) == [1, 0, -1]

    def test_empty_right_side(self):
        left = np.asarray([1, 2], dtype=np.int64)
        right = np.asarray([], dtype=np.int64)
        assert list(match_foreign_keys(left, right)) == [-1, -1]


class TestJoinColumnAmbiguity:
    def make_catalog(self):
        # Both tables carry BOTH column names, so both ON orientations
        # resolve and only the qualifiers can disambiguate.
        fact = Table(
            "fact",
            Schema.of([key("a"), key("b"), measure("m")]),
            {"a": [0, 1, 2], "b": [9, 9, 9], "m": [1.0, 2.0, 3.0]},
        )
        dim = Table(
            "dim",
            Schema.of([key("a"), key("b"), categorical_dimension("label")]),
            {"a": [5, 6, 7], "b": [0, 1, 2], "label": ["x", "y", "z"]},
        )
        return Catalog.of([fact, dim], fact_tables=["fact"])

    def test_qualified_orientation_preferred(self):
        catalog = self.make_catalog()
        # fact.a matches dim.b (0, 1, 2); the first candidate orientation
        # (left column -> base side) would wrongly join fact.b to dim.a and
        # produce an empty result.
        clause = ast.JoinClause(
            table="dim",
            left_column=ast.ColumnRef("b", table="dim"),
            right_column=ast.ColumnRef("a", table="fact"),
        )
        joined = catalog.join(catalog.table("fact"), clause)
        assert joined.num_rows == 3
        assert list(joined.column("label")) == ["x", "y", "z"]

    def test_unqualified_ambiguity_keeps_first_candidate(self):
        catalog = self.make_catalog()
        clause = ast.JoinClause(
            table="dim",
            left_column=ast.ColumnRef("a"),
            right_column=ast.ColumnRef("b"),
        )
        # Without qualifiers the historical orientation (left -> base) wins.
        joined = catalog.join(catalog.table("fact"), clause)
        assert list(joined.column("label")) == ["x", "y", "z"]


class TestDenormalizationCache:
    def test_repeated_denormalize_hits_cache(self, star_catalog):
        query = parse_query(
            "SELECT AVG(amount) FROM orders JOIN stores ON store_id = store_id"
        )
        first = star_catalog.denormalize(query)
        hits_before = star_catalog.join_cache.hits
        second = star_catalog.denormalize(query)
        assert second is first
        assert star_catalog.join_cache.hits == hits_before + 1

    def test_replace_table_invalidates(self, star_catalog):
        query = parse_query(
            "SELECT AVG(amount) FROM orders JOIN stores ON store_id = store_id"
        )
        first = star_catalog.denormalize(query)
        assert first.num_rows == 6
        orders = star_catalog.table("orders")
        star_catalog.replace_table(orders.head(3))
        assert star_catalog.table_version("orders") == 1
        refreshed = star_catalog.denormalize(query)
        assert refreshed is not first
        assert refreshed.num_rows == 3

    def test_queries_without_joins_bypass_cache(self, star_catalog):
        query = parse_query("SELECT AVG(amount) FROM orders")
        assert star_catalog.denormalize(query) is star_catalog.table("orders")
        assert len(star_catalog.join_cache) == 0

    def test_join_all_with_token_memoises(self, star_catalog):
        query = parse_query(
            "SELECT AVG(amount) FROM orders JOIN stores ON store_id = store_id"
        )
        base = star_catalog.table("orders").head(4)
        joined = star_catalog.join_all(base, query.joins, cache_token=("prefix", 4))
        again = star_catalog.join_all(base, query.joins, cache_token=("prefix", 4))
        assert again is joined
        # Without a token nothing is cached or served.
        fresh = star_catalog.join_all(base, query.joins)
        assert fresh is not joined

    def test_cache_eviction_is_bounded(self):
        cache = JoinCache(capacity=2)
        table = Table("x", Schema.of([measure("m")]), {"m": [1.0]})
        for index in range(5):
            cache.put(("key", index), table)
        assert len(cache) == 2
        assert cache.get(("key", 4)) is table
        assert cache.get(("key", 0)) is None

    def test_eviction_is_lru_not_fifo(self):
        # A hot entry (hit between inserts) must survive a burst of one-off
        # insertions that would evict it under FIFO.
        cache = JoinCache(capacity=2)
        table = Table("x", Schema.of([measure("m")]), {"m": [1.0]})
        cache.put("hot", table)
        cache.put("cold", table)
        assert cache.get("hot") is table  # refresh recency
        cache.put("newer", table)  # evicts "cold", not "hot"
        assert cache.get("hot") is table
        assert cache.get("cold") is None


class TestAppendRows:
    """Satellite: appends extend cached denormalizations instead of clearing."""

    def _denorm_query(self):
        return parse_query(
            "SELECT AVG(amount) FROM orders JOIN stores ON store_id = store_id"
        )

    def _delta(self):
        return Table(
            "orders",
            Schema.of(
                [
                    numeric_dimension("day", ColumnKind.INT),
                    key("store_id"),
                    measure("amount"),
                ]
            ),
            {"day": [7, 8], "store_id": [1, 0], "amount": [70.0, 80.0]},
        )

    def test_append_rows_updates_table_and_versions(self, star_catalog):
        before_version = star_catalog.catalog_version
        updated = star_catalog.append_rows("orders", self._delta())
        assert star_catalog.table("orders") is updated
        assert updated.num_rows == 8
        assert star_catalog.table_version("orders") == 1
        assert star_catalog.catalog_version == before_version + 1

    def test_append_extends_cached_denormalization(self, star_catalog):
        query = self._denorm_query()
        cached_before = star_catalog.denormalize(query)
        assert cached_before.num_rows == 6
        star_catalog.append_rows("orders", self._delta())
        hits_before = star_catalog.join_cache.hits
        extended = star_catalog.denormalize(query)
        # Served from the cache entry written by append_rows: no re-join.
        assert star_catalog.join_cache.hits == hits_before + 1
        assert extended.num_rows == 8
        # The extension equals a from-scratch denormalization of the new table.
        star_catalog.join_cache.clear()
        recomputed = star_catalog.denormalize(query)
        assert extended.column_names() == recomputed.column_names()
        for name in extended.column_names():
            assert extended.column(name).tolist() == recomputed.column(name).tolist()

    def test_append_without_cached_join_is_lazy(self, star_catalog):
        star_catalog.append_rows("orders", self._delta())
        assert star_catalog.denormalize(self._denorm_query()).num_rows == 8

    def test_append_reuses_prefix_partitions(self, star_catalog):
        from repro.db.partition import table_partitions

        old = star_catalog.table("orders")
        before = table_partitions(old, partition_rows=3)
        star_catalog.append_rows("orders", self._delta())
        after = table_partitions(star_catalog.table("orders"))
        assert after.partition_rows == 3
        # 6 old rows / 3 = 2 full partitions reused verbatim, 1 new built.
        assert after.zone_maps[0] is before.zone_maps[0]
        assert after.zone_maps[1] is before.zone_maps[1]
        assert after.num_partitions == 3

    def test_stale_dimension_version_skips_extension(self, star_catalog):
        query = self._denorm_query()
        star_catalog.denormalize(query)
        stores = star_catalog.table("stores")
        star_catalog.replace_table(stores)  # bump dim version, clear cache
        star_catalog.append_rows("orders", self._delta())
        # No crash, and a fresh denormalization is still correct.
        assert star_catalog.denormalize(query).num_rows == 8
