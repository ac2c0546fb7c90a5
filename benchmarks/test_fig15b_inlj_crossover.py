"""Figure 15(b): INLJ vs hash join crossover moves with the index medium.

Adapted TPC-H Q12: join a varying fraction of lineitem against orders
through a non-clustered index that lives either on the SSD or pinned in
remote memory.  At low selectivity the INLJ wins; at high selectivity
the hash join wins; the crossover happens at a much higher selectivity
when the index is memory-resident — which is why the optimizer's cost
model must know where the structure lives (Section 3.3).
"""

from repro.engine import (
    BTree,
    BufferPool,
    CostModel,
    DevicePageFile,
    Medium,
    RemotePageFile,
    crossover_selectivity,
)
from repro.engine.page import PAGE_SIZE
from repro.harness import Design, build_database, format_table
from repro.workloads import build_tpch_database
from repro.workloads.tpch import TpchScale

SELECTIVITIES = (0.002, 0.01, 0.05, 0.15, 0.4, 0.8)
SCALE = TpchScale()


def _build_index(db, setup, orders, medium: str):
    """Covering NC index on orders(orderkey), on SSD or remote memory."""
    entries = sorted(
        (row[0], row[3])
        for page_rows in db._all_leaf_rows(orders)
        for row in page_rows
    )
    # A small dedicated pool so leaf reads really hit the medium (the
    # cache is pinned *outside* the buffer pool, Section 3.3).
    pool = BufferPool(db.server, capacity_pages=16)
    if medium == "ssd":
        store = DevicePageFile(8000, db.server, db.server.device("ssd"),
                               capacity_pages=4096)
    else:
        pages_needed = len(entries) // 300 + 64
        remote_file = setup.run(setup.remote_fs.create(
            f"ncidx.{medium}", pages_needed * PAGE_SIZE * 2
        ))
        setup.run(remote_file.open())
        store = RemotePageFile(8001, remote_file)
    pool.register_file(store)
    tree = BTree("orders.nc", pool, store, key_fn=lambda e: e[0], leaf_capacity=40)
    if medium == "ssd":
        tree.bulk_build(entries)
    else:
        # Remote store: build via a preloadable staging store, then copy.
        staging = DevicePageFile(8002, db.server, db.server.device("ssd"))
        staging_pool = BufferPool(db.server, capacity_pages=16)
        staging_pool.register_file(staging)
        tree = BTree("orders.nc", staging_pool, staging,
                     key_fn=lambda e: e[0], leaf_capacity=40)
        tree.bulk_build(entries)
        # Move the pages into remote memory (untimed steady-state setup).
        store.preload([page for _slot, page in staging.iter_pages()])
        tree.pool = pool
        tree.store = store
        pool.register_file(store) if store.file_id not in pool.files else None
    return tree


def run_figure15b():
    setup = build_database(
        Design.CUSTOM, bp_pages=2048, bpext_pages=4096, tempdb_pages=49152,
        analytic=True,
    )
    db = setup.database
    tables = build_tpch_database(db, scale=SCALE)
    orders = tables["orders"]
    lineitem = tables["lineitem"]
    sim = db.sim
    results = {}
    rows = []

    def warm_scan():
        yield from orders.clustered.range_scan(-1, 10**9)
        yield from lineitem.clustered.range_scan(0, SCALE.lineitems)

    sim.run_until_complete(sim.spawn(warm_scan()))
    for medium in ("ssd", "remote"):
        index = _build_index(db, setup, orders, medium)
        for fraction in SELECTIVITIES:
            # A uniform predicate on lineitem selects this fraction of
            # orderkeys, scattered over the whole orders key space.
            step = max(1, int(1.0 / fraction))
            orderkeys = list(range(0, SCALE.orders, step))

            def inlj_run(orderkeys=orderkeys):
                for key in orderkeys:
                    yield from index.search(key)
                yield from db.server.cpu.compute(len(orderkeys) * 0.5)

            def hash_run(orderkeys=orderkeys):
                build = yield from orders.clustered.range_scan(-1, 10**9)
                table = {row[0]: row for row in build}
                yield from db.server.cpu.compute(
                    len(build) * 0.25 + len(orderkeys) * 0.25
                )
                _joined = [table.get(key) for key in orderkeys]

            start = sim.now
            sim.run_until_complete(sim.spawn(inlj_run()))
            inlj_us = sim.now - start
            start = sim.now
            sim.run_until_complete(sim.spawn(hash_run()))
            hash_us = sim.now - start
            results[(medium, fraction)] = (inlj_us, hash_us)
            rows.append([medium, fraction, inlj_us / 1000, hash_us / 1000,
                         "INLJ" if inlj_us < hash_us else "HASH"])
    print()
    print(format_table(
        ["index medium", "selectivity", "INLJ ms", "HashJoin ms", "winner"],
        rows, title="Figure 15b: INLJ vs HJ crossover by index medium",
    ))
    # The optimizer cost model predicts the same movement.
    ssd_cross = crossover_selectivity(
        CostModel(index_medium=Medium.SSD), orders, SCALE.lineitems
    )
    remote_cross = crossover_selectivity(
        CostModel(index_medium=Medium.REMOTE_MEMORY), orders, SCALE.lineitems
    )
    print(f"\ncost-model crossover: SSD={ssd_cross:.4f}  remote={remote_cross:.4f}")
    return results, ssd_cross, remote_cross


def _measured_crossover(results, medium):
    for fraction in SELECTIVITIES:
        inlj, hashed = results[(medium, fraction)]
        if hashed < inlj:
            return fraction
    return 1.0


def test_fig15b_inlj_crossover(once):
    results, ssd_cross, remote_cross = once(run_figure15b)
    # With the index in remote memory, INLJ wins at low selectivity...
    assert results[("remote", SELECTIVITIES[0])][0] < results[("remote", SELECTIVITIES[0])][1]
    # ... while at high selectivity the hash join wins on both media.
    assert results[("remote", SELECTIVITIES[-1])][0] > results[("remote", SELECTIVITIES[-1])][1]
    # The measured crossover moves right with a memory-resident index.
    assert _measured_crossover(results, "remote") > _measured_crossover(results, "ssd")
    # And the re-calibrated cost model agrees (Section 3.3: the
    # optimizer must be re-calibrated for memory-resident structures).
    assert remote_cross > 2 * ssd_cross
