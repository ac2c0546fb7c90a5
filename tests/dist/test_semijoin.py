"""Bloom-filter semi-join pushdown: geometry, unions, byte savings."""

import pytest

from repro.dist import (
    BloomFilter,
    DistSpec,
    build_dist,
    execute_plan,
    load_tpch_partitioned,
    prewarm_dist,
)
from repro.plan import Join, PlanNode, Project, Scan, TopN
from repro.workloads import TpchScale

SMALL = TpchScale(orders=400, lines_per_order=2, customers=100, parts=80, suppliers=20)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(1 << 12)
        keys = list(range(0, 4000, 7))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_is_bounded(self):
        bloom = BloomFilter(1 << 15)
        for key in range(200):
            bloom.add(key)
        absent = range(1_000_000, 1_002_000)
        false_positives = sum(1 for key in absent if key in bloom)
        assert false_positives / 2000 < 0.05

    def test_rejects_non_power_of_two_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(1000)

    def test_union_requires_matching_geometry(self):
        with pytest.raises(ValueError):
            BloomFilter(1 << 10).union(BloomFilter(1 << 12))

    def test_union_merges_membership(self):
        left, right = BloomFilter(1 << 12), BloomFilter(1 << 12)
        left.add("alpha")
        right.add("beta")
        left.union(right)
        assert "alpha" in left and "beta" in left

    def test_wire_size_matches_geometry(self):
        assert BloomFilter(1 << 15).size_bytes == (1 << 15) // 8

    def test_string_and_int_keys_coexist(self):
        bloom = BloomFilter(1 << 12)
        bloom.add("orderkey")
        bloom.add(42)
        assert "orderkey" in bloom and 42 in bloom


def _query(semijoin: bool) -> PlanNode:
    join = Join(
        Scan("customer", conditions=(("acctbal", "<", 60.0),)), Scan("orders"),
        "customer.custkey", "orders.custkey", semijoin=semijoin,
    )
    columns = ("customer.custkey", "orders.orderkey", "orders.totalprice")
    return TopN(Project(join, columns), 400)


def _run(semijoin: bool, tag: str):
    setup = build_dist(DistSpec(
        name="semi", db_servers=2, bp_pages=400, tempdb_pages=256,
        data_spindles=2, db_cores=4,
    ))
    load_tpch_partitioned(setup, scale=SMALL, seed=7)
    prewarm_dist(setup)
    result = execute_plan(setup, _query(semijoin), name="semi", tag=tag)
    return result, setup


class TestBloomBuildPushdown:
    def test_pushdown_cuts_shuffled_bytes_same_answer(self):
        plain, _ = _run(semijoin=False, tag="plain")
        pushed, setup = _run(semijoin=True, tag="pushed")
        # The filter dropped probe rows before they hit the wire...
        assert pushed.metrics["bloom_filtered_rows"] > 0
        assert pushed.metrics["exchange_rows"] < plain.metrics["exchange_rows"]
        assert pushed.metrics["exchange_bytes"] < plain.metrics["exchange_bytes"]
        # ...without changing the answer (no false negatives).
        assert pushed.rows == plain.rows
        assert len(pushed.rows) > 0
        # Shipping the filter itself was accounted on its own exchange.
        assert setup.runtime.stats["semi.pushed.bloom"].bytes > 0

    def test_pushdown_is_deterministic(self):
        first, _ = _run(semijoin=True, tag="repeat")
        second, _ = _run(semijoin=True, tag="repeat")
        assert first.rows == second.rows
        assert first.metrics == second.metrics
        assert first.elapsed_us == second.elapsed_us
