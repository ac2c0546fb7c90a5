"""The declarative tier grammar: validation, resolution, compilation."""

import pytest

from repro.harness import TIER_SPECS, Design
from repro.tiers import TierDef, TierSpec

#: Table 5, row by row: (TempDB, BPExt medium, protocol, BPExt kept for
#: analytic workloads, synchronous remote I/O).
TABLE_5 = {
    Design.HDD: ("hdd", None, None, False, False),
    Design.HDD_SSD: ("ssd", "ssd", None, False, False),
    Design.SMB_RAMDRIVE: ("remote", "remote", "smb", True, False),
    Design.SMBDIRECT_RAMDRIVE: ("remote", "remote", "smbdirect", True, False),
    Design.CUSTOM: ("remote", "remote", "ndspi", True, True),
    Design.LOCAL_MEMORY: ("ssd", None, None, False, False),
}


class TestValidation:
    def test_unknown_tier_medium_rejected(self):
        with pytest.raises(ValueError):
            TierDef(medium="tape")

    def test_non_positive_share_rejected(self):
        with pytest.raises(ValueError):
            TierDef(medium="ssd", share=0)

    def test_unknown_store_medium_rejected(self):
        with pytest.raises(ValueError):
            TierSpec(name="x", tempdb="floppy")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            TierSpec(name="x", protocol="nfs")

    def test_remote_placement_requires_protocol(self):
        with pytest.raises(ValueError):
            TierSpec(name="x", extension=(TierDef(medium="remote"),))
        with pytest.raises(ValueError):
            TierSpec(name="x", tempdb="remote")
        # With a protocol the same topologies are fine.
        TierSpec(name="x", extension=(TierDef(medium="remote"),), protocol="ndspi")


class TestResolve:
    def spec(self, **kwargs):
        defaults = dict(
            name="t",
            extension=(
                TierDef(medium="ssd", share=1.0),
                TierDef(medium="remote", share=2.0),
            ),
            protocol="ndspi",
        )
        defaults.update(kwargs)
        return TierSpec(**defaults)

    def test_share_weighted_split_is_exact(self):
        plan = self.spec().resolve(analytic=False, bpext_pages=1200, tempdb_pages=64)
        assert [t.capacity_pages for t in plan.extension] == [400, 800]

    def test_remainder_lands_in_last_tier(self):
        spec = TierSpec(
            name="t",
            extension=tuple(TierDef(medium="ssd", share=1.0) for _ in range(3)),
        )
        plan = spec.resolve(analytic=False, bpext_pages=10, tempdb_pages=0)
        assert [t.capacity_pages for t in plan.extension] == [3, 3, 4]
        assert sum(t.capacity_pages for t in plan.extension) == 10

    def test_tier_names_single_vs_stack(self):
        single = TierSpec(name="t", extension=(TierDef(medium="ssd"),))
        plan = single.resolve(analytic=False, bpext_pages=8, tempdb_pages=0)
        assert [t.name for t in plan.extension] == ["bpext"]
        plan = self.spec().resolve(analytic=False, bpext_pages=8, tempdb_pages=0)
        assert [t.name for t in plan.extension] == ["bpext.ssd", "bpext.remote"]

    def test_analytic_rule_lives_in_resolve(self):
        spec = self.spec(extension_for_analytics=False)
        assert spec.resolve(analytic=False, bpext_pages=8, tempdb_pages=0).extension
        assert not spec.resolve(analytic=True, bpext_pages=8, tempdb_pages=0).extension
        keeps = self.spec(extension_for_analytics=True)
        assert keeps.resolve(analytic=True, bpext_pages=8, tempdb_pages=0).extension

    def test_zero_budget_disables_extension(self):
        plan = self.spec().resolve(analytic=False, bpext_pages=0, tempdb_pages=0)
        assert plan.extension == ()

    def test_plan_carries_placements(self):
        plan = self.spec(tempdb="remote", wal="hdd").resolve(
            analytic=False, bpext_pages=8, tempdb_pages=32
        )
        assert plan.tempdb.medium == "remote"
        assert plan.tempdb.capacity_pages == 32
        assert plan.wal.medium == "hdd"
        assert plan.needs_remote
        assert [t.medium for t in plan.remote_extension_tiers()] == ["remote"]


class TestSpecCompilation:
    @pytest.mark.parametrize("design", list(TABLE_5))
    def test_spec_matches_table_5(self, design):
        tempdb, bpext, protocol, bpext_for_analytics, sync_remote_io = TABLE_5[design]
        spec = TIER_SPECS[design]
        assert spec.name == design.value
        assert spec.tempdb == tempdb
        assert spec.wal == "hdd"  # Table 5 keeps the log local in every design
        assert spec.protocol == protocol
        assert spec.sync_remote_io == sync_remote_io
        assert spec.extension_for_analytics == bpext_for_analytics
        assert [t.medium for t in spec.extension] == ([] if bpext is None else [bpext])
        assert spec.semcache == ("remote" if protocol else "ssd")

    def test_tier_specs_cover_every_design(self):
        assert set(TIER_SPECS) == set(Design)

    def test_local_memory_absorbs_extension_budget(self):
        assert TIER_SPECS[Design.LOCAL_MEMORY].pool_absorbs_extension
        assert not TIER_SPECS[Design.CUSTOM].pool_absorbs_extension

    def test_three_tier_is_pure_data(self):
        spec = TIER_SPECS[Design.THREE_TIER]
        assert [t.medium for t in spec.extension] == ["ssd", "remote"]
        assert spec.extension[1].promote_on_hit
        assert spec.protocol == "ndspi"
