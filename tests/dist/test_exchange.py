"""Exchange fabric: flow control, merges, edge cases, fault injection."""

import pytest

from repro.dist import (
    DistSpec,
    build_dist,
    execute_plan,
    load_tpch_partitioned,
    prewarm_dist,
)
from repro.faults import FaultEngine, FaultPlan
from repro.net import RdmaError
from repro.plan import Join, Project, Scan, TopN
from repro.sim.kernel import SimulationError
from repro.workloads import TpchScale

SMALL = TpchScale(orders=400, lines_per_order=2, customers=100, parts=80, suppliers=20)

CUST_ORDERS = TopN(Project(
    Join(
        Scan("customer", conditions=(("acctbal", "<", 60.0),)),
        Scan("orders", conditions=(("orderdate", "<", 1500),)),
        "customer.custkey", "orders.custkey",
    ),
    ("customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice"),
), 300)


def run_cust_orders(setup):
    return execute_plan(setup, CUST_ORDERS, name="cust_orders")


def partitioned_setup(n=2, seed=5, **overrides):
    kwargs = dict(bp_pages=400, tempdb_pages=256, data_spindles=2, db_cores=4)
    kwargs.update(overrides)
    setup = build_dist(DistSpec(name="xtest", db_servers=n, **kwargs))
    load_tpch_partitioned(setup, scale=SMALL, seed=seed)
    prewarm_dist(setup)
    return setup


class TestEdgeCases:
    def test_zero_row_partitions(self):
        """A probe filter that drops everything still terminates cleanly."""
        setup = partitioned_setup()
        empty = TopN(Project(
            Join(
                Scan("customer"), Scan("orders", conditions=(("orderdate", "<", -1),)),
                "customer.custkey", "orders.custkey",
            ),
            ("orders.orderkey",),
        ), 10)
        result = execute_plan(setup, empty, name="empty")
        assert result.rows == []
        # Only EOS control batches crossed the wire.
        shuffle = setup.runtime.stats["empty.run.shuffle"]
        assert shuffle.rows == 0
        assert shuffle.batches == 4  # 2 fragments x 2 destinations, EOS each

    def test_single_server_degenerate_topology(self):
        """fragments=1: everything self-ships, zero wire traffic."""
        setup = partitioned_setup(n=1)
        result = run_cust_orders(setup)
        assert len(result.rows) > 0
        assert result.metrics["exchange_bytes"] == 0
        assert setup.runtime.channels == {}
        # Same answer as a 2-server run of the same data.
        two = run_cust_orders(partitioned_setup(n=2))
        assert result.rows == two.rows

    def test_seeded_merge_determinism(self):
        """Two identical runs produce bit-identical rows and metrics."""
        first = run_cust_orders(partitioned_setup())
        second = run_cust_orders(partitioned_setup())
        assert first.rows == second.rows
        assert first.metrics == second.metrics
        assert first.elapsed_us == second.elapsed_us

    def test_merge_invariant_to_credit_budget(self):
        """Credits change timing, never the merged row order."""
        plenty = run_cust_orders(partitioned_setup(credits=8))
        starved = run_cust_orders(partitioned_setup(credits=1))
        assert plenty.rows == starved.rows
        assert starved.elapsed_us >= plenty.elapsed_us


class TestCreditStarvation:
    def test_degraded_link_stalls_credits_but_not_correctness(self):
        """Reuses the faults link-degradation injector on a receiver."""
        baseline = run_cust_orders(partitioned_setup(credits=1))

        setup = partitioned_setup(credits=1)
        engine = FaultEngine.for_setup(setup)
        plan = FaultPlan().degrade_link(
            at_us=setup.sim.now, server="db1", duration_us=60e6,
            latency_multiplier=50.0,
        )
        engine.run_plan(plan)
        degraded = run_cust_orders(setup)
        assert degraded.rows == baseline.rows
        assert (
            degraded.metrics["credit_stalls_us"]
            > baseline.metrics["credit_stalls_us"]
        )
        assert degraded.elapsed_us > baseline.elapsed_us

    def test_degraded_run_is_deterministic(self):
        def once():
            setup = partitioned_setup(credits=1)
            engine = FaultEngine.for_setup(setup)
            engine.run_plan(FaultPlan().degrade_link(
                at_us=setup.sim.now, server="db1", duration_us=60e6,
                latency_multiplier=50.0, drop_probability=0.05,
            ))
            result = run_cust_orders(setup)
            return result.rows, result.elapsed_us, result.metrics

        assert once() == once()


class TestStagingRevocation:
    def test_force_deregister_racing_shuffle_fails_deterministically(self):
        """A lease-style revocation of a staging buffer mid-query must
        surface as a deterministic RDMA failure, never silent data."""
        def once():
            setup = partitioned_setup()
            runtime = setup.runtime
            channel = runtime.channels[(0, 1)]

            def revoke():
                yield setup.sim.timeout(400.0)  # mid-shuffle
                yield from runtime.registrars[1].deregister(
                    channel.region, force=True
                )

            setup.sim.spawn(revoke())
            with pytest.raises((RdmaError, SimulationError)) as exc_info:
                run_cust_orders(setup)
            exc = exc_info.value
            cause = exc.__cause__ if isinstance(exc, SimulationError) else exc
            assert isinstance(cause, RdmaError)
            assert channel.region.doomed or not channel.region.registered
            return type(exc).__name__, str(exc)

        assert once() == once()
