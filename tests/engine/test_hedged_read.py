"""Hedged extension reads: a page fault races a slow extension read
against a delayed read of the same page from the base file."""

import numpy as np

from repro.engine.bufferpool import BufferPool, BufferPoolExtension
from repro.engine.errors import PageNotFound
from repro.engine.files import DevicePageFile
from repro.engine.page import Page
from repro.reliability import ReliabilityLayer, ReliabilityPolicy
from repro.sim.kernel import Interrupt
from repro.tiers import Tier

#: Too few samples ever to warm up: every hedge waits the maximum delay.
POLICY = ReliabilityPolicy(
    hedge_min_delay_us=100.0, hedge_max_delay_us=500.0, hedge_min_samples=10**9
)
HEDGE_DELAY_US = POLICY.hedge_max_delay_us


def make_hedged_pool(rig):
    """Page 0 of file 1 parked in an SSD extension, its base copy on the
    HDD array (a random read there takes milliseconds)."""
    store = DevicePageFile(50, rig.db, rig.ssd, capacity_pages=16)
    extension = BufferPoolExtension([Tier("bpext", store)])
    pool = BufferPool(rig.db, capacity_pages=4, extension=extension)
    data = DevicePageFile(1, rig.db, rig.hdd)
    data.preload([Page.build(1, n, [(n, f"row{n}")]) for n in range(64)])
    pool.register_file(data)
    layer = pool.attach_reliability(ReliabilityLayer(rig.sim, np.random.default_rng(1), POLICY))
    for n in range(5):  # page 0 is evicted and parked
        rig.run(pool.get_page(1, n))
    rig.sim.run(until=rig.sim.now + 10_000)  # the park lands
    assert pool.extension.contains((1, 0))
    return pool, data, layer


def delay_primary(rig, pool, delay_us, fails=False):
    """Make the extension read take ``delay_us``, then fail or serve."""
    original = pool.extension.get
    seen = {"interrupted": False}

    def get(page_id, background=False):
        try:
            yield rig.sim.timeout(delay_us)
        except Interrupt:
            seen["interrupted"] = True
            raise
        if fails:
            raise PageNotFound("the extension lost the page")
        return (yield from original(page_id, background=background))

    pool.extension.get = get
    return seen


def fault_page_0(rig, pool):
    start = rig.sim.now
    page = rig.run(pool.get_page(1, 0))
    assert page.rows == [(0, "row0")]
    return rig.sim.now - start


def test_slow_primary_loses_to_the_backup(rig):
    pool, _data, layer = make_hedged_pool(rig)
    seen = delay_primary(rig, pool, delay_us=100_000)
    base_reads = pool.base_reads
    elapsed = fault_page_0(rig, pool)
    assert HEDGE_DELAY_US < elapsed < 100_000
    assert layer.hedges_issued == 1
    assert layer.hedge_backup_wins == 1 and layer.hedge_rescues == 0
    rig.sim.run(until=rig.sim.now + 1)  # the interrupt lands in its instant
    assert seen["interrupted"]
    assert pool.base_reads == base_reads + 1


def test_fast_primary_issues_no_backup(rig):
    pool, _data, layer = make_hedged_pool(rig)
    seen = delay_primary(rig, pool, delay_us=10)
    ext_hits = pool.ext_hits
    assert fault_page_0(rig, pool) < HEDGE_DELAY_US
    assert layer.hedges_issued == 0 and layer.hedge_backup_wins == 0
    assert not seen["interrupted"]
    assert pool.ext_hits == ext_hits + 1


def test_backup_rescues_a_primary_that_fails_after_the_hedge(rig):
    pool, _data, layer = make_hedged_pool(rig)
    delay_primary(rig, pool, delay_us=2 * HEDGE_DELAY_US, fails=True)
    base_reads = pool.base_reads
    assert fault_page_0(rig, pool) > 2 * HEDGE_DELAY_US
    assert layer.hedges_issued == 1
    assert layer.hedge_backup_wins == 1 and layer.hedge_rescues == 1
    assert pool.base_reads == base_reads + 1


def test_page_missing_from_the_base_file_waits_for_the_primary(rig):
    pool, data, layer = make_hedged_pool(rig)
    data.discard(0)
    delay_primary(rig, pool, delay_us=5_000)
    ext_hits = pool.ext_hits
    assert fault_page_0(rig, pool) >= 5_000
    assert layer.hedges_issued == 0
    assert pool.ext_hits == ext_hits + 1


def test_primary_that_answers_after_the_hedge_still_wins(rig):
    # The backup disk read is already in flight when the primary lands,
    # but the HDD read takes milliseconds: the primary supplies the page.
    pool, _data, layer = make_hedged_pool(rig)
    seen = delay_primary(rig, pool, delay_us=2 * HEDGE_DELAY_US)
    ext_hits, base_reads = pool.ext_hits, pool.base_reads
    elapsed = fault_page_0(rig, pool)
    assert 2 * HEDGE_DELAY_US <= elapsed < 3 * HEDGE_DELAY_US
    assert layer.hedges_issued == 1 and layer.hedge_primary_wins == 1
    assert layer.hedge_backup_wins == 0
    assert pool.ext_hits == ext_hits + 1
    assert pool.base_reads == base_reads
    rig.sim.run(until=rig.sim.now + 100_000)  # the losing backup lands
    assert not seen["interrupted"]
    assert pool.base_reads == base_reads
