"""Multi-tier extension semantics: placement, demotion, promotion, aggregation."""

import pytest

from repro.engine import BufferPoolExtension
from repro.engine.errors import EngineError, PageNotFound
from repro.engine.files import DevicePageFile
from repro.harness import Design, build_database
from repro.tiers import Tier
from tests.tiers.conftest import make_page, make_stack


class TestLevels:
    def test_an_extension_needs_a_tier(self):
        with pytest.raises(EngineError):
            BufferPoolExtension([])

    def test_a_one_tier_plan_builds_one_level(self):
        assert build_database(Design.HDD, bp_pages=64).database.pool.extension is None
        ext = build_database(
            Design.HDD_SSD, bp_pages=64, bpext_pages=128
        ).database.pool.extension
        assert [(lv.name, lv.medium, lv.capacity_pages) for lv in ext.levels] == [
            ("bpext", "ssd", 128)
        ]
        # One tier, one recorder: the aggregate is the level's own.
        assert ext.read_latency is ext.levels[0].read_latency

    def test_one_tier_keeps_its_last_victim_out(self, rig):
        store = DevicePageFile(900, rig.db, rig.ssd, capacity_pages=2)
        ext = BufferPoolExtension([Tier("bpext", store, medium="ssd")])
        for n in range(3):
            rig.run(ext.put(make_page(n)))
        assert not ext.contains((1, 0))  # nowhere to demote to: dropped
        assert (ext.demotions, ext.demotions_failed) == (0, 0)

    def test_two_tiers_compose_a_stack(self, rig):
        stack = make_stack(rig)
        assert [lv.name for lv in stack.levels] == ["bpext.ssd", "bpext.hdd"]
        assert stack.read_latency is not stack.levels[0].read_latency


class TestPlacement:
    def test_put_lands_in_the_fastest_tier(self, rig):
        stack = make_stack(rig)
        rig.run(stack.put(make_page(0)))
        assert (1, 0) in stack.levels[0].slots
        assert (1, 0) not in stack.levels[1].slots

    def test_overflow_demotes_the_coldest_page(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        assert stack.demotions == 1
        # Page 0 was evicted from the hot tier into the cold tier, not
        # dropped; the two newest pages stay hot.
        assert (1, 0) in stack.levels[1].slots
        assert (1, 1) in stack.levels[0].slots
        assert (1, 2) in stack.levels[0].slots
        assert stack.contains((1, 0))

    def test_failed_demotion_read_is_counted_not_silent(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(2):
            rig.run(stack.put(make_page(n)))
        hot = stack.levels[0]
        hot.store.discard(hot.slots[(1, 0)])  # the victim's image vanishes
        rig.run(stack.put(make_page(2)))
        assert (stack.demotions, stack.demotions_failed) == (0, 1)
        assert not stack.contains((1, 0))  # lost from the cache, not demoted
        assert (1, 2) in hot.slots  # the slot was still reused

    def test_unexpected_demotion_errors_propagate(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(2):
            rig.run(stack.put(make_page(n)))

        def broken_read(slot, background=False):
            raise RuntimeError("not a cache-miss condition")
            yield

        stack.levels[0].store.read_page = broken_read
        with pytest.raises(RuntimeError):
            rig.run(stack.put(make_page(2)))
        assert stack.demotions_failed == 0

    def test_put_skips_pages_a_lower_tier_already_holds(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(3):
            rig.run(stack.put(make_page(n)))  # page 0 demoted below
        parked_hot = stack.levels[0].parked_pages
        rig.run(stack.put(make_page(0)))  # re-evicted from the pool
        # The cold copy is current (updates invalidate every level), so
        # re-parking it up top would double-cache and churn demotions.
        assert stack.levels[0].parked_pages == parked_hot
        assert (1, 0) not in stack.levels[0].slots
        assert stack.demotions == 1

    def test_adopt_fills_fastest_first(self, rig):
        stack = make_stack(rig, cap_hot=2, cap_cold=2)
        assert all(stack.adopt(make_page(n)) for n in range(4))
        assert stack.levels[0].parked_pages == 2
        assert stack.levels[1].parked_pages == 2
        assert stack.adopt(make_page(4)) is False  # every tier full


class TestFetch:
    def test_get_from_any_tier_counts_one_stack_hit(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        assert rig.run(stack.get((1, 2))).page_no == 2  # hot tier
        assert rig.run(stack.get((1, 0))).page_no == 0  # cold tier
        assert stack.hits == 2
        assert stack.levels[0].hits == 1
        assert stack.levels[1].hits == 1
        assert len(stack.read_latency) == 2

    def test_absent_page_raises(self, rig):
        stack = make_stack(rig)
        with pytest.raises(PageNotFound):
            rig.run(stack.get((1, 99)))

    def test_cold_hit_promotes_when_asked(self, rig):
        stack = make_stack(rig, cap_hot=2, promote=True)
        for n in range(3):
            rig.run(stack.put(make_page(n)))  # page 0 demoted below
        page = rig.run(stack.get((1, 0)))
        assert page.page_no == 0
        assert stack.promotions == 1
        assert (1, 0) in stack.levels[0].slots
        assert (1, 0) not in stack.levels[1].slots
        # The hot tier was full: the promotion demoted another victim.
        assert stack.demotions == 2

    def test_cold_hit_stays_put_by_default(self, rig):
        stack = make_stack(rig, cap_hot=2, promote=False)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        rig.run(stack.get((1, 0)))
        assert stack.promotions == 0
        assert (1, 0) in stack.levels[1].slots


class TestAggregates:
    """What the pool, telemetry and faults read off the whole hierarchy."""

    def test_aggregates_sum_over_levels(self, rig):
        stack = make_stack(rig, cap_hot=2, cap_cold=8)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        assert stack.capacity_pages == 10
        assert stack.parked_pages == 3
        rig.run(stack.get((1, 1)))
        rig.run(stack.get((1, 0)))
        with pytest.raises(PageNotFound):
            rig.run(stack.get((1, 9)))
        assert stack.hits == sum(level.hits for level in stack.levels) == 2
        assert stack.misses == sum(level.misses for level in stack.levels)

    def test_invalidate_clears_every_level(self, rig):
        stack = make_stack(rig, cap_hot=2)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        stack.invalidate((1, 0))  # parked cold
        stack.invalidate((1, 2))  # parked hot
        assert not stack.contains((1, 0))
        assert not stack.contains((1, 2))
        assert stack.parked_pages == 1

    def test_enabled_toggles_every_level(self, rig):
        stack = make_stack(rig)
        rig.run(stack.put(make_page(0)))
        stack.enabled = False
        assert not stack.enabled
        assert not stack.contains((1, 0))
        stack.enabled = True
        assert stack.contains((1, 0))

    def test_on_fault_sweeps_every_level(self, rig):
        # Device stores name no provider, so a provider-targeted sweep
        # conservatively invalidates both tiers.
        stack = make_stack(rig, cap_hot=2)
        for n in range(3):
            rig.run(stack.put(make_page(n)))
        lost = stack.on_fault(provider="mem0")
        assert len(lost) == 3
        assert stack.pages_lost_to_faults == 3
        assert stack.parked_pages == 0

    def test_level_failures_reach_stack_listeners(self, rig):
        stack = make_stack(rig)
        seen = []
        rig.sim.observers.append(
            lambda _now, kind, fields: kind == "bpext.refault" and seen.append(fields["page_id"])
        )
        rig.run(stack.put(make_page(0)))
        level = stack.levels[0]
        stack._on_failure(level, (1, 0), level.slots[(1, 0)])
        assert seen == [(1, 0)]
        assert stack.failures == 1

    def test_shared_bytes_series(self, rig):
        stack = make_stack(rig)
        series = stack.track_throughput()
        assert stack.bytes_series is series
        rig.run(stack.put(make_page(0)))
        rig.run(stack.get((1, 0)))
        assert sum(series.buckets.values()) == 2 * 8192

    def test_level_for_finds_the_medium(self, rig):
        stack = make_stack(rig)
        assert stack.level_for("hdd") is stack.levels[1]
        assert stack.level_for("ssd") is stack.levels[0]
        assert stack.level_for("remote") is None
