"""Tests for the page-based B-tree, including hypothesis properties."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.bufferpool import BufferPool
from repro.engine.btree import BTree
from repro.engine.files import DevicePageFile


def make_tree(rig, rows, leaf_capacity=8, pool_pages=512):
    pool = BufferPool(rig.db, capacity_pages=pool_pages)
    store = DevicePageFile(1, rig.db, rig.ssd)
    pool.register_file(store)
    tree = BTree("t", pool, store, key_fn=lambda r: r[0], leaf_capacity=leaf_capacity)
    tree.bulk_build(rows)
    return tree, pool


class TestBulkBuild:
    def test_small_tree_is_single_leaf(self, rig):
        tree, _ = make_tree(rig, [(i, f"v{i}") for i in range(5)])
        assert tree.height == 1
        assert tree.leaf_count == 1

    def test_large_tree_has_internal_levels(self, rig):
        tree, _ = make_tree(rig, [(i, f"v{i}") for i in range(1000)], leaf_capacity=8)
        assert tree.height >= 2
        assert tree.leaf_count == 125

    def test_unsorted_input_rejected(self, rig):
        from repro.engine.errors import EngineError

        with pytest.raises(EngineError):
            make_tree(rig, [(2, "b"), (1, "a")])

    def test_empty_tree_builds_and_searches(self, rig):
        tree, _ = make_tree(rig, [])
        assert rig.run(tree.search(1)) == []


class TestSearch:
    def test_point_lookup(self, rig):
        tree, _ = make_tree(rig, [(i, f"v{i}") for i in range(200)])
        assert rig.run(tree.search(137)) == [(137, "v137")]

    def test_missing_key(self, rig):
        tree, _ = make_tree(rig, [(i * 2, i) for i in range(100)])
        assert rig.run(tree.search(3)) == []

    def test_range_scan_inclusive_exclusive(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(100)])
        rows = rig.run(tree.range_scan(10, 20))
        assert [r[0] for r in rows] == list(range(10, 20))

    def test_range_scan_spanning_leaves(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(100)], leaf_capacity=4)
        rows = rig.run(tree.range_scan(0, 100))
        assert len(rows) == 100

    def test_range_scan_limit(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(100)])
        rows = rig.run(tree.range_scan(0, 100, limit=7))
        assert len(rows) == 7


class TestMutation:
    def test_insert_then_search(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(0, 100, 2)])
        rig.run(tree.insert((13, "new")))
        assert rig.run(tree.search(13)) == [(13, "new")]

    def test_insert_splits_leaf(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(8)], leaf_capacity=8)
        leaves_before = tree.leaf_count
        rig.run(tree.insert((100, "x")))
        assert tree.leaf_count == leaves_before + 1
        assert rig.run(tree.search(100)) == [(100, "x")]

    def test_many_inserts_keep_order(self, rig):
        tree, _ = make_tree(rig, [], leaf_capacity=4)
        # First insert into an empty tree, in scrambled order.
        keys = [(i * 37) % 200 for i in range(200)]
        for key in keys:
            rig.run(tree.insert((key, f"v{key}")))
        rows = rig.run(tree.range_scan(-1, 1000))
        assert [r[0] for r in rows] == sorted(keys)

    def test_update_where(self, rig):
        tree, _ = make_tree(rig, [(i, 0) for i in range(50)])
        changed = rig.run(tree.update_where(7, lambda row: (row[0], row[1] + 5)))
        assert changed == 1
        assert rig.run(tree.search(7)) == [(7, 5)]

    def test_update_range_from_a_seek_made_earlier(self, rig):
        tree, _ = make_tree(rig, [(i, 0) for i in range(50)], leaf_capacity=4)
        start = rig.run(tree.seek(10))
        changed = rig.run(tree.update_range(10, 20, lambda row: (row[0], 1), start=start))
        assert changed == 10
        rows = rig.run(tree.range_scan(0, 50))
        assert [row[0] for row in rows if row[1]] == list(range(10, 20))

    def test_delete(self, rig):
        tree, _ = make_tree(rig, [(i, i) for i in range(50)])
        assert rig.run(tree.delete(10)) == 1
        assert rig.run(tree.search(10)) == []
        assert rig.run(tree.delete(10)) == 0

    def test_updates_survive_eviction(self, rig):
        """Dirty index pages must round-trip through the storage stack."""
        tree, pool = make_tree(rig, [(i, 0) for i in range(400)],
                               leaf_capacity=4, pool_pages=8)
        rig.run(tree.update_where(399, lambda row: (row[0], "persisted")))
        # Thrash the pool so the dirty leaf is evicted and rewritten.
        for key in range(0, 300, 7):
            rig.run(tree.search(key))
        rig.sim.run(until=rig.sim.now + 1e6)
        assert rig.run(tree.search(399)) == [(399, "persisted")]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(st.integers(min_value=0, max_value=10_000), min_size=0, max_size=300),
    leaf_capacity=st.integers(min_value=2, max_value=16),
)
def test_btree_matches_sorted_reference(keys, leaf_capacity):
    """Property: after arbitrary inserts, a full scan equals sorted input."""
    from tests.engine.conftest import EngineRig

    rig = EngineRig()
    pool = BufferPool(rig.db, capacity_pages=4096)
    store = DevicePageFile(1, rig.db, rig.ssd)
    pool.register_file(store)
    tree = BTree("t", pool, store, key_fn=lambda r: r[0], leaf_capacity=leaf_capacity)
    tree.bulk_build([])
    for key in keys:
        rig.run(tree.insert((key, key * 2)))
    rows = rig.run(tree.range_scan(-1, 10_001))
    assert [r[0] for r in rows] == sorted(keys)
    # Every key individually findable.
    for key in set(keys):
        found = rig.run(tree.search(key))
        assert all(r[0] == key for r in found)
        assert len(found) == keys.count(key)


KEYS = st.integers(min_value=0, max_value=12)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.lists(KEYS, max_size=60),
    statements=st.lists(
        st.one_of(
            st.tuples(st.just("update_where"), KEYS, KEYS),
            st.tuples(st.just("update_range"), KEYS, KEYS),
            st.tuples(st.just("delete"), KEYS, KEYS),
        ),
        max_size=8,
    ),
    leaf_capacity=st.integers(min_value=2, max_value=5),
    limit=st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
)
def test_leaf_rewriter_matches_a_list(keys, statements, leaf_capacity, limit):
    """Property: ``update_where``, ``update_range`` and ``delete`` — one
    leaf rewriter — change exactly the rows a list comprehension would,
    and ``range_scan(low, high, limit)`` returns exactly the list's
    slice, with duplicate keys spanning leaves and leaves emptied by
    deletes."""
    from tests.engine.conftest import EngineRig

    rig = EngineRig()
    model = [(key, 0) for key in sorted(keys)]
    tree, _ = make_tree(rig, model, leaf_capacity=leaf_capacity)

    def bump(row):
        return (row[0], row[1] + 1)

    for op, low, other in statements:
        if op == "update_where":
            hit = [row[0] == low for row in model]
            changed = rig.run(tree.update_where(low, bump))
        elif op == "update_range":
            hit = [low <= row[0] < other for row in model]
            changed = rig.run(tree.update_range(low, other, bump))
        else:
            hit = [row[0] == low for row in model]
            changed = rig.run(tree.delete(low))
        assert changed == sum(hit)
        model = [
            bump(row) if was_hit else row
            for row, was_hit in zip(model, hit) if not (was_hit and op == "delete")
        ]
        assert rig.run(tree.range_scan(-1, 100)) == model
        window = [row for row in model if low <= row[0] < other]
        assert rig.run(tree.range_scan(low, other, limit)) == window[:limit]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    n_rows=st.integers(min_value=0, max_value=500),
    low=st.integers(min_value=-10, max_value=510),
    span=st.integers(min_value=0, max_value=200),
)
def test_range_scan_matches_slice(n_rows, low, span):
    """Property: range_scan(low, high) == the matching slice of the data."""
    from tests.engine.conftest import EngineRig

    rig = EngineRig()
    pool = BufferPool(rig.db, capacity_pages=4096)
    store = DevicePageFile(1, rig.db, rig.ssd)
    pool.register_file(store)
    tree = BTree("t", pool, store, key_fn=lambda r: r[0], leaf_capacity=6)
    tree.bulk_build([(i, i) for i in range(n_rows)])
    high = low + span
    rows = rig.run(tree.range_scan(low, high))
    expected = [i for i in range(n_rows) if low <= i < high]
    assert [r[0] for r in rows] == expected


class TestDevicePageFileLayout:
    def test_chunked_layout_separates_chunks(self, rig):
        from repro.engine.files import DevicePageFile

        store = DevicePageFile(1, rig.db, rig.hdd)
        # Within a chunk: consecutive pages are 8K apart.
        assert store._offset(1) - store._offset(0) == 8192
        assert store._offset(255) - store._offset(254) == 8192
        # Across a chunk boundary: far apart (scattered placement).
        assert abs(store._offset(256) - store._offset(255)) > 2 * 1024 * 1024

    def test_linear_layout_is_contiguous(self, rig):
        from repro.engine.files import DevicePageFile

        store = DevicePageFile(1, rig.db, rig.hdd, chunk_pages=None, base_offset=1000)
        assert store._offset(0) == 1000
        assert store._offset(300) == 1000 + 300 * 8192

    def test_layout_is_deterministic_per_file(self, rig):
        from repro.engine.files import DevicePageFile

        a = DevicePageFile(7, rig.db, rig.hdd)
        b = DevicePageFile(7, rig.db, rig.ssd)
        c = DevicePageFile(8, rig.db, rig.hdd)
        assert a._offset(512) == b._offset(512)  # same file id, same layout
        assert a._offset(512) != c._offset(512)  # different files scatter apart
