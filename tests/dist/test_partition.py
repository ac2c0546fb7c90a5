"""Partitioning grammar: stable hashing, ownership, sharding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    TPCH_PARTITIONING,
    DistSpec,
    PartitionSpec,
    build_dist,
    load_tpch_partitioned,
    load_tpch_single,
    partition_rows,
    stable_hash,
    stable_hashes,
)
from repro.workloads import TPCH_SCHEMAS, TpchScale, generate_tpch_rows

SMALL = TpchScale(orders=200, lines_per_order=2, customers=50, parts=40, suppliers=10)


class TestStableHash:
    def test_stable_across_calls(self):
        assert stable_hash(12345) == stable_hash(12345)
        assert stable_hash("abc") == stable_hash("abc")

    def test_known_values_pinned(self):
        # Pinned so a refactor cannot silently re-shard every table.
        assert stable_hash(0) == 0
        assert stable_hash(1) == 6238072747940578789
        assert stable_hash("lineitem") == 2705002430

    def test_spreads_sequential_keys(self):
        owners = [stable_hash(key) % 4 for key in range(1000)]
        counts = [owners.count(i) for i in range(4)]
        assert min(counts) > 150  # roughly balanced, not degenerate


class TestPartitionSpec:
    def test_hash_owner_in_range(self):
        spec = PartitionSpec("orders", "orderkey")
        assert all(0 <= spec.owner(k, 3) < 3 for k in range(100))

    def test_single_server_owns_everything(self):
        spec = PartitionSpec("orders", "orderkey")
        assert all(spec.owner(k, 1) == 0 for k in range(50))

    def test_range_owner(self):
        spec = PartitionSpec("orders", "orderkey", method="range", bounds=(100, 200))
        assert spec.owner(5, 3) == 0
        assert spec.owner(100, 3) == 1
        assert spec.owner(999, 3) == 2

    def test_range_needs_matching_bounds(self):
        spec = PartitionSpec("orders", "orderkey", method="range", bounds=(100,))
        with pytest.raises(ValueError):
            spec.owner(5, 3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec("orders", "orderkey", method="round_robin")

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec("orders", "orderkey", method="range", bounds=(200, 100))


#: Keys the vectorised splitmix64 takes (ints inside 64 bits), and the
#: ones it must hand to the per-value path: wider ints, bool, float, str.
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
KEYS = st.one_of(
    INT64, st.integers(min_value=2**63, max_value=2**70), st.booleans(),
    st.floats(min_value=-1e15, max_value=1e15), st.text(max_size=6),
)
KEY_LISTS = st.one_of(
    st.lists(INT64, max_size=40),
    st.lists(st.integers(min_value=2**63, max_value=2**64 - 1), max_size=10),
    st.lists(st.booleans(), max_size=10),
    st.lists(KEYS, max_size=40),  # mixed
)


class TestBatchOwners:
    """The batch contract is the scalar one, value for value."""

    @settings(max_examples=200, deadline=None)
    @given(values=KEY_LISTS, n=st.integers(min_value=1, max_value=9))
    def test_hash_owners_equal_owner_per_value(self, values, n):
        spec = PartitionSpec("t", "k")
        assert stable_hashes(values).tolist() == [stable_hash(v) for v in values]
        owners = spec.owners(values, n)
        assert owners == [spec.owner(v, n) for v in values]
        assert all(type(owner) is int for owner in owners)

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=-500, max_value=500), max_size=40),
        bounds=st.lists(st.integers(min_value=-400, max_value=400), max_size=5).map(sorted),
    )
    def test_range_owners_equal_owner_per_value(self, values, bounds):
        spec = PartitionSpec("t", "k", method="range", bounds=tuple(bounds))
        n = len(bounds) + 1
        assert spec.owners(values, n) == [spec.owner(v, n) for v in values]

    def test_empty_input_and_single_server(self):
        spec = PartitionSpec("t", "k")
        assert spec.owners([], 4) == []
        assert spec.owners([7, "x", 2.5], 1) == [0, 0, 0]

    def test_range_owners_need_matching_bounds(self):
        spec = PartitionSpec("t", "k", method="range", bounds=(100,))
        with pytest.raises(ValueError):
            spec.owners([5], 3)


class TestPartitionRows:
    def test_shards_are_a_partition_of_the_input(self):
        rows = generate_tpch_rows(SMALL, seed=1)["orders"]
        spec = PartitionSpec("orders", "orderkey")
        shards = partition_rows(rows, TPCH_SCHEMAS["orders"], spec, 4)
        assert sum(len(s) for s in shards) == len(rows)
        merged = sorted(row for shard in shards for row in shard)
        assert merged == sorted(rows)

    def test_zero_row_shard_is_legal(self):
        rows = generate_tpch_rows(SMALL, seed=1)["orders"]
        # All orderkeys < 200, so the upper range partitions are empty.
        spec = PartitionSpec(
            "orders", "orderkey", method="range", bounds=(10_000, 20_000)
        )
        shards = partition_rows(rows, TPCH_SCHEMAS["orders"], spec, 3)
        assert len(shards[0]) == len(rows)
        assert shards[1] == [] and shards[2] == []

    def test_tpch_partitioning_covers_all_tables(self):
        assert set(TPCH_PARTITIONING) == set(TPCH_SCHEMAS)
        for name, spec in TPCH_PARTITIONING.items():
            assert spec.table == name


class TestBuildDist:
    def test_identical_hardware_per_server(self):
        spec = DistSpec(name="t", db_servers=3, bp_pages=64, tempdb_pages=64,
                        data_spindles=2, db_cores=4)
        setup = build_dist(spec)
        assert len(setup.databases) == 3
        for server in setup.db_servers:
            assert set(server.devices) == {"hdd", "ssd"}
        # All-pairs exchange channels exist.
        assert len(setup.runtime.channels) == 6

    def test_partitioned_load_covers_every_row(self):
        spec = DistSpec(name="t", db_servers=2, bp_pages=128, tempdb_pages=64,
                        data_spindles=2, db_cores=4)
        setup = build_dist(spec)
        load_tpch_partitioned(setup, scale=SMALL, seed=2)
        rows = generate_tpch_rows(SMALL, seed=2)
        for table in TPCH_SCHEMAS:
            sharded = sum(
                tables[table].stats.row_count for tables in setup.tables
            )
            assert sharded == len(rows[table])
        assert setup.partitioning is not None

    def test_single_load_puts_everything_on_db0(self):
        spec = DistSpec(name="t", db_servers=2, bp_pages=128, tempdb_pages=64,
                        data_spindles=2, db_cores=4)
        setup = build_dist(spec)
        load_tpch_single(setup, scale=SMALL, seed=2)
        assert len(setup.tables) == 1
        assert setup.partitioning is None

    def test_remote_extension_wiring(self):
        spec = DistSpec(name="t", db_servers=2, memory_servers=2, bp_pages=64,
                        ext_pages=(256, 256), tempdb_pages=64,
                        data_spindles=2, db_cores=4)
        setup = build_dist(spec)
        assert setup.broker is not None
        assert len(setup.memory_servers) == 2
        for database in setup.databases:
            assert database.pool.extension is not None

    def test_ext_pages_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_dist(DistSpec(name="t", db_servers=2, ext_pages=(256,)))
