"""Tracing must not perturb virtual time or seeded determinism.

The tracer only reads ``sim.now`` — it never creates events, yields, or
draws randomness — so the same seed with telemetry on or off must give
bit-identical results and final virtual clocks.  These tests run real
workloads twice and compare exact floats, not approximations.
"""

import zlib

from repro.harness import Design, build_database, build_io_target, prewarm_extension
from repro.telemetry import install
from repro.workloads import RANDOM_8K, run_sqlio
from repro.workloads.analytics import run_query_streams
from repro.workloads.rangescan import RangeScanConfig, build_customer_table, run_rangescan
from repro.workloads.tpch import TPCH_QUERIES, build_tpch_database


def _sqlio_fingerprint(trace: bool):
    target = build_io_target("Custom", seed=11)
    sim = target.cluster.sim
    tracer = install(sim) if trace else None
    result = run_sqlio(
        sim, target, RANDOM_8K,
        span_bytes=target.span_bytes,
        rng=target.cluster.rng.stream("sqlio"),
    )
    fingerprint = (
        sim.now,
        sim.events_processed,
        result.elapsed_us,
        sum(record[3] for record in result.records),
        tuple(result.latency.samples),
    )
    return fingerprint, tracer


def _query_fingerprint(trace: bool):
    setup = build_database(
        Design.CUSTOM, bp_pages=256, bpext_pages=2600,
        tempdb_pages=49152, analytic=True, seed=4,
    )
    tracer = install(setup.sim) if trace else None
    tables = build_tpch_database(setup.database)
    report = run_query_streams(
        setup.database, tables, TPCH_QUERIES[:3], streams=1, seed=4
    )
    fingerprint = (
        setup.sim.now,
        setup.sim.events_processed,
        report.elapsed_us,
        report.ops,
        tuple(
            (name, tuple(recorder.samples))
            for name, recorder in sorted(report.by_label.items())
        ),
    )
    return fingerprint, tracer


def _rangescan_fingerprint(trace: bool):
    """80 clients on 4 cores, a pool far smaller than the table: cores
    and NIC engines queue, so ``Resource.hold`` does the waiting."""
    setup = build_database(Design.CUSTOM, bp_pages=64, bpext_pages=2000, db_cores=4, seed=7)
    tracer = install(setup.sim) if trace else None
    table = build_customer_table(setup.database, 20_000)
    prewarm_extension(setup)
    config = RangeScanConfig(n_rows=20_000, workers=80, queries_per_worker=3, seed=7)
    report = run_rangescan(setup.database, table, config)
    assert setup.pool.misses > 0 and setup.remote_fs.files  # faults, served remotely
    fingerprint = (
        setup.sim.now,
        setup.sim.events_processed,
        report.elapsed_us,
        tuple(report.latency.samples),
    )
    return fingerprint, tracer


def test_sqlio_identical_with_tracing_on_and_off():
    off, _ = _sqlio_fingerprint(trace=False)
    on, tracer = _sqlio_fingerprint(trace=True)
    assert on == off  # bit-identical timings and final virtual clock
    assert tracer.spans  # and the traced run actually recorded spans


def test_tpch_identical_with_tracing_on_and_off():
    off, _ = _query_fingerprint(trace=False)
    on, tracer = _query_fingerprint(trace=True)
    assert on == off
    # The instrumented stack produced deep causal chains while at it:
    # query -> operator -> fault -> transfer -> NIC.
    assert tracer.max_depth() >= 4


def test_contended_rangescan_identical_with_tracing_on_and_off():
    off, _ = _rangescan_fingerprint(trace=False)
    on, tracer = _rangescan_fingerprint(trace=True)
    assert on == off
    # The waits the kernel advanced still show as queue -> service pairs,
    # split where the grant happened, under the span that was open.
    by_sid = {span.sid: span for span in tracer.spans}
    for queued, served in (("cpu.runq", "cpu.compute"), ("cpu.runq", "cpu.spin"),
                           ("nic.queue", "nic.xmit")):
        waits = [s for s in tracer.spans if s.name == queued and s.duration_us > 0]
        assert waits
        successors = {
            (s.tid, s.parent_id, s.start_us) for s in tracer.spans if s.name == served
        }
        hits = [w for w in waits if (w.tid, w.parent_id, w.end_us) in successors]
        assert hits, f"no {queued} span is followed by a {served} span"
    assert all(
        by_sid[s.parent_id].name == "nic.transfer"
        for s in tracer.spans if s.name in ("nic.queue", "nic.xmit")
    )


def _span_digest(tracer):
    """Size and CRC of the span *multiset*: each span as (names from the
    root down, start, end, thread name, depth, args), sorted — the order
    of ``tracer.spans`` and the sid/tid numbering are free to change."""
    by_sid = {span.sid: span for span in tracer.spans}

    def path(span):
        names = [span.name]
        while span.parent_id:
            span = by_sid[span.parent_id]
            names.append(span.name)
        return "/".join(reversed(names))

    rows = sorted(
        repr((path(s), s.start_us, s.end_us, tracer.thread_names[s.tid], s.depth,
              sorted((s.args or {}).items())))
        for s in tracer.spans
    )
    return len(rows), zlib.crc32("\n".join(rows).encode())


def _traced_example_query():
    """The query of ``examples/trace_a_query.py``, set up as it is there."""
    setup = build_database(
        Design.CUSTOM, bp_pages=256, bpext_pages=2600,
        tempdb_pages=49152, analytic=True, seed=7,
    )
    tables = build_tpch_database(setup.database)
    prewarm_extension(setup)
    tracer = install(setup.sim)
    spec = next(s for s in TPCH_QUERIES if s.name == "Q5")
    plan, memory, consumers = spec.factory(
        setup.database, tables, setup.cluster.rng.stream("trace-example")
    )
    setup.run(setup.database.execute(plan, memory, consumers))
    return tracer


def test_span_multisets_are_those_of_the_generator_verbs():
    """Verbs and NIC transfers are kernel-stepped chains since PR 22; the
    tracer must not be able to tell.  Pinned to what commit c83cf9d — one
    process and three nested generators per verb — recorded: every
    ``rdma.read`` › ``nic.control`` / ``nic.transfer`` › ``nic.xmit`` |
    ``nic.queue`` span with its ancestors, times, thread, depth and args."""
    _, tracer = _rangescan_fingerprint(trace=True)
    assert _span_digest(tracer) == (17150, 424821052)
    assert _span_digest(_traced_example_query()) == (23145, 3425224474)


def test_two_traced_runs_are_identical():
    first, _ = _sqlio_fingerprint(trace=True)
    second, _ = _sqlio_fingerprint(trace=True)
    assert first == second
