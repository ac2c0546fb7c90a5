"""Dist telemetry: exchange gauges, tracing invariance, trace export."""

from repro.dist import (
    DistSpec,
    Strategy,
    build_strategy,
    compile_plan_fragments,
    execute_plan,
)
from repro.plan import Join, Project, Scan, TopN
from repro.telemetry import install, to_chrome_trace, validate_chrome_trace
from repro.telemetry.attach import register_dist
from repro.workloads import TpchScale

SMALL = TpchScale(orders=300, lines_per_order=2, customers=80, parts=60, suppliers=15)

CUST_ORDERS = TopN(Project(
    Join(
        Scan("customer", conditions=(("acctbal", "<", 50.0),)), Scan("orders"),
        "customer.custkey", "orders.custkey", semijoin=True,
    ),
    ("customer.custkey", "customer.acctbal", "orders.orderkey", "orders.totalprice"),
), 250)

SPEC = DistSpec(name="ttest", db_servers=2, bp_pages=400, tempdb_pages=256,
                data_spindles=2, db_cores=4)


def _fingerprint(trace: bool):
    setup = build_strategy(Strategy.QUERY, SPEC, total_ext_pages=0,
                           scale=SMALL, seed=6)
    tracer = install(setup.sim) if trace else None
    result = execute_plan(setup, CUST_ORDERS, name="cust_orders")
    fingerprint = (
        setup.sim.now,
        result.elapsed_us,
        tuple(result.rows),
        tuple(sorted(result.metrics.items())),
    )
    return fingerprint, tracer, setup


class TestRegisterDist:
    def test_gauges_bound_after_compile(self):
        setup = build_strategy(Strategy.QUERY, SPEC, total_ext_pages=0,
                               scale=SMALL, seed=6)
        # Compiling declares the exchange ids eagerly; binding then sees
        # them even before the query runs.
        compile_plan_fragments(CUST_ORDERS, setup, name="cust_orders", tag="bind")
        register_dist(setup.metrics, "dist", setup.runtime)
        for tag in ("shuffle", "gather", "bloom"):
            name = f"dist.exchange.cust_orders.bind.{tag}.bytes"
            assert name in setup.metrics
            assert setup.metrics.get(name).read() == 0.0

    def test_total_gauges_are_live(self):
        setup = build_strategy(Strategy.QUERY, SPEC, total_ext_pages=0,
                               scale=SMALL, seed=6)
        # Bind BEFORE anything is compiled: the fabric-wide totals read
        # live over the stats dict, so exchanges declared by later
        # compiles are still counted.
        register_dist(setup.metrics, "dist", setup.runtime)
        total_rows = setup.metrics.get("dist.exchange.total.rows")
        assert total_rows.read() == 0.0
        execute_plan(setup, CUST_ORDERS, name="cust_orders")
        expected = sum(stats.rows for stats in setup.runtime.stats.values())
        assert expected > 0
        assert total_rows.read() == float(expected)
        assert setup.metrics.get("dist.exchange.total.bytes").read() > 0

    def test_gauges_track_execution(self):
        setup = build_strategy(Strategy.QUERY, SPEC, total_ext_pages=0,
                               scale=SMALL, seed=6)
        result = execute_plan(setup, CUST_ORDERS, name="cust_orders")
        register_dist(setup.metrics, "dist", setup.runtime)
        shuffle = setup.runtime.stats["cust_orders.run.shuffle"]
        prefix = "dist.exchange.cust_orders.run.shuffle"
        assert setup.metrics.get(f"{prefix}.rows").read() == float(shuffle.rows)
        assert setup.metrics.get(f"{prefix}.bytes").read() == float(shuffle.bytes)
        assert shuffle.rows > 0
        assert result.metrics["exchange_bytes"] >= shuffle.bytes


class TestTracingInvariance:
    def test_query_shipping_identical_with_tracing_on_and_off(self):
        off, _, _ = _fingerprint(trace=False)
        on, tracer, _ = _fingerprint(trace=True)
        assert on == off  # bit-identical rows, metrics and virtual clock
        assert tracer.spans

    def test_exchange_spans_exported_and_valid(self):
        _, tracer, _ = _fingerprint(trace=True)
        names = {span.name for span in tracer.spans}
        assert "dist.exchange.send" in names
        # Operator auto-spans name themselves after the class.
        assert {"ShuffleExchange", "GatherExchange", "HashJoin"} <= names
        events = validate_chrome_trace(to_chrome_trace(tracer, label="dist"))
        assert events
