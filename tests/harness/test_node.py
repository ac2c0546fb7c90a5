"""The shared node and pool assemblers: every builder gets the same
node and assembles its memory pool through one Topology, and each
builder's set-up still lands on its recorded virtual clock."""

import pytest

from repro.dist import DistSpec, build_dist
from repro.faults import FaultEngine
from repro.fleet import FleetSpec, TenantSpec, build_fleet
from repro.harness import Design, build_database, rebuild_extension
from repro.harness.iobench import build_custom_multi, build_io_target, build_multi_db
from repro.harness.node import Topology
from repro.storage import GB
from repro.tiers import TierDef, TierSpec

ONE_REMOTE_TIER = TierSpec(
    name="one-remote", extension=(TierDef(medium="remote"),), protocol="ndspi"
)
PAGES = 512


def single():
    return build_database(
        ONE_REMOTE_TIER, bp_pages=96, bpext_pages=PAGES, tempdb_pages=256,
        data_spindles=8, db_cores=8, seed=5,
    )


def one_server_dist():
    return build_dist(DistSpec(name="eq", db_servers=1, ext_pages=(PAGES,), seed=5))


def one_tenant_fleet():
    return build_fleet(FleetSpec(
        tenants=(TenantSpec("a", ext_pages=PAGES, tier=ONE_REMOTE_TIER),),
        memory_servers=1, seed=5,
    ))


def shape(extension):
    return [
        (lv.name, lv.medium, lv.capacity_pages, lv.store.file_id)
        for lv in extension.levels
    ]


class TestBuilderEquivalence:
    def test_three_builders_assemble_the_same_extension(self):
        extensions = [
            single().database.pool.extension,
            one_server_dist().databases[0].pool.extension,
            one_tenant_fleet().tenants["a"].replicas[0].database.pool.extension,
        ]
        assert shape(extensions[0]) == [("bpext", "remote", PAGES, 900)]
        assert all(shape(ext) == shape(extensions[0]) for ext in extensions)

    # (sim.now, events_processed) after set-up, recorded at the commit
    # before the shared assembler existed: each builder keeps its own
    # order of bootstrap steps, so its absolute virtual time cannot move.
    @pytest.mark.parametrize("build, clock", [
        (single, (129298.0, 14)),
        (one_server_dist, (88093.0, 22)),
        (one_tenant_fleet, (13508.0, 21)),
        (lambda: build_database(Design.CUSTOM, bp_pages=128, bpext_pages=512,
                                tempdb_pages=256, data_spindles=8, seed=3),
         (137721.0, 16)),
        (lambda: build_database(Design.THREE_TIER, bp_pages=128, bpext_pages=512,
                                tempdb_pages=256, data_spindles=8, seed=3),
         (137721.0, 16)),
        (lambda: build_database(Design.SMB_RAMDRIVE, bp_pages=128, bpext_pages=512,
                                tempdb_pages=256, data_spindles=8, seed=3),
         (0.0, 0)),
        (lambda: build_database(Design.CUSTOM, bp_pages=128, bpext_pages=512,
                                n_memory_servers=3, reliability=True, seed=3),
         (384951.0, 34)),
        (lambda: build_dist(DistSpec(name="p", db_servers=4, memory_servers=2,
                                     ext_pages=(256,) * 4, seed=5)),
         (272422.0, 99)),
        (lambda: build_fleet(FleetSpec(
            tenants=(TenantSpec("a", ext_pages=512),
                     TenantSpec("b", replicas=2, ext_pages=1024)),
            memory_servers=2, seed=5), marketplace=True),
         (42058.0, 77)),
    ])
    def test_setup_clock_is_the_recorded_one(self, build, clock):
        setup = build()
        assert (setup.sim.now, setup.sim.events_processed) == clock


#: Every public builder, each returning its set-ups as a list.
EVERY_BUILDER = {
    "database-ndspi": lambda: [build_database(
        Design.CUSTOM, bp_pages=64, bpext_pages=128, n_memory_servers=2)],
    "database-smb": lambda: [build_database(
        Design.SMB_RAMDRIVE, bp_pages=64, bpext_pages=128, n_memory_servers=2)],
    "dist": lambda: [build_dist(DistSpec(
        name="pool", db_servers=2, memory_servers=2, ext_pages=(128, 128)))],
    "fleet": lambda: [build_fleet(FleetSpec(
        tenants=(TenantSpec("a", ext_pages=256, n_rows=1000),), memory_servers=2))],
    "io-custom": lambda: [build_io_target("Custom", span_bytes=1 * GB)],
    "custom-multi": lambda: [build_custom_multi(2, span_bytes=1 * GB)],
    "multi-db": lambda: build_multi_db(2, per_db_span=1 * GB),
}


class TestOnePool:
    @pytest.mark.parametrize("build", EVERY_BUILDER.values(), ids=list(EVERY_BUILDER))
    def test_every_builder_assembles_its_pool_through_topology(self, build):
        for setup in build():
            assert isinstance(setup, Topology)
            names = [server.name for server in setup.memory_servers]
            assert names == [f"mem{index}" for index in range(len(names))]
            if setup.broker is None:  # SMB: a RamDrive, no brokered regions
                assert names and setup.proxies == {}
            else:
                assert list(setup.proxies) == names
                assert all(p.broker is setup.broker for p in setup.proxies.values())
            engine = FaultEngine.for_setup(setup)
            assert engine.broker is setup.broker
            assert engine.proxies == setup.proxies
            assert set(engine.servers) == set(setup.cluster.servers)

    def test_offer_memory_offers_every_proxy_in_order(self):
        pool = build_io_target("SSD", span_bytes=1 * GB)
        pool.add_memory_servers(2, memory_bytes=64 * GB, mr_bytes=1 * GB)
        regions = pool.run(pool.offer_memory(2 * GB))
        assert [region.server.name for region in regions] == ["mem0"] * 2 + ["mem1"] * 2
        assert pool.broker.available_bytes() == 4 * GB


class TestRebuild:
    def test_rebuild_extension_swaps_the_remote_level_only(self):
        setup = build_database(
            Design.THREE_TIER, bp_pages=64, bpext_pages=600, tempdb_pages=256
        )
        extension = setup.database.pool.extension
        ssd, remote = extension.levels
        old_file = remote.store.remote_file
        new_store = setup.run(rebuild_extension(setup))
        assert extension.levels == [ssd, remote]  # same level states
        assert remote.store is new_store and new_store.file_id == 910
        assert new_store.capacity_pages == remote.capacity_pages == 400
        assert old_file.name not in setup.remote_fs.files
        assert new_store.remote_file.name in setup.remote_fs.files

    def test_rebuild_needs_a_remote_level(self):
        setup = build_database(Design.HDD_SSD, bp_pages=64, bpext_pages=128)
        with pytest.raises(ValueError):
            setup.run(rebuild_extension(setup))
