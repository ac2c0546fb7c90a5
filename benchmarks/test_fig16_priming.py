"""Figure 16: priming the buffer pool of a newly-elected primary.

(a) warming the pool through the workload takes ~two orders of
magnitude longer than serializing it on the old primary and
transferring it over RDMA; (b) a primed secondary serves the hotspot
workload with 4-10x lower p95 latency than a cold one.
"""

from repro.cluster import Cluster
from repro.engine import Database, prime_pool_from_file, serialize_pool_to_file
from repro.harness import format_table
from repro.harness.node import Topology
from repro.net import Network
from repro.remotefile import RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, MB, Raid0Array
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 100_000
BP_SIZES = (640, 768, 896, 1024)  # pages; paper sweeps 10-25 GB pools


def _hotspot_config(queries_per_worker):
    return RangeScanConfig(
        n_rows=N_ROWS, workers=40, queries_per_worker=queries_per_worker,
        range_size=500, distribution="hotspot", seed=11,
    )


def _build_pair(bp_pages):
    cluster = Cluster(seed=6)
    pool = Topology(cluster=cluster, network=Network(cluster.sim))
    servers = {}
    for name in ("S1", "S2"):
        server = cluster.add_server(name, memory_bytes=384 * GB)
        pool.network.attach(server)
        hdd = server.attach_device(
            "hdd", Raid0Array(cluster.sim, spindles=20,
                              rng=cluster.rng.stream(f"hdd.{name}"))
        )
        servers[name] = Database(server, bp_pages=bp_pages, data_device=hdd)
    pool.add_memory_servers(1, memory_bytes=384 * GB, mr_bytes=64 * MB)
    fs = RemoteMemoryFilesystem(servers["S1"].server, pool.broker,
                                StagingPool(servers["S1"].server))
    fs2 = RemoteMemoryFilesystem(servers["S2"].server, pool.broker,
                                 StagingPool(servers["S2"].server))

    def setup():
        yield from fs.initialize()
        yield from fs2.initialize()
        yield from pool.offer_memory(2 * GB)

    pool.run(setup())
    return cluster, servers, fs, fs2


def run_figure16():
    results = {}
    rows = []
    for bp_pages in BP_SIZES:
        cluster, dbs, fs, fs2 = _build_pair(bp_pages)
        sim = cluster.sim
        s1, s2 = dbs["S1"], dbs["S2"]
        # Physically-identical replicas of the database.
        table1 = build_customer_table(s1, N_ROWS)
        table2 = build_customer_table(s2, N_ROWS)
        # Warm S1's pool through the workload (the "warmup" bar): the
        # normal production request stream, not a deliberate flood.
        start = sim.now
        warm_config = RangeScanConfig(
            n_rows=N_ROWS, workers=10, queries_per_worker=400,
            range_size=500, distribution="hotspot", seed=11,
        )
        run_rangescan(s1, table1, warm_config, rng=cluster.rng.stream("warm1"))
        warmup_us = sim.now - start
        # Cold S2: measure tail latency before priming.
        cold = run_rangescan(s2, table2, _hotspot_config(8),
                             rng=cluster.rng.stream("cold"))
        s2.pool.drop_all()
        # Serialize S1's pool into an in-memory file, prime S2 from it.
        file_bytes = (bp_pages + 64) * 8192
        primefile = cluster.sim.run_until_complete(cluster.sim.spawn(
            fs.create("prime", file_bytes)))
        sim.run_until_complete(sim.spawn(primefile.open()))
        start = sim.now
        serialize = sim.run_until_complete(
            sim.spawn(serialize_pool_to_file(s1, primefile)))
        serialize_us = sim.now - start
        # S2 opens its own flow to the same leased memory regions.
        primefile.owner = s2.server
        primefile.staging = fs2.staging
        primefile._qps.clear()
        sim.run_until_complete(sim.spawn(primefile.open()))
        start = sim.now
        sim.run_until_complete(sim.spawn(
            prime_pool_from_file(s2, primefile, serialize.pages)))
        transfer_us = sim.now - start
        primed = run_rangescan(s2, table2, _hotspot_config(8),
                               rng=cluster.rng.stream("primed"))
        results[bp_pages] = (
            warmup_us, serialize_us, transfer_us,
            cold.latency.p95 / 1000.0, primed.latency.p95 / 1000.0,
        )
        rows.append([
            f"{bp_pages * 8 // 1024} MB pool", warmup_us / 1e6,
            serialize_us / 1e6, transfer_us / 1e6,
            cold.latency.p95 / 1000.0, primed.latency.p95 / 1000.0,
        ])
    print()
    print(format_table(
        ["pool size", "warm-up s", "serialize s", "transfer s",
         "cold p95 ms", "primed p95 ms"],
        rows, title="Figure 16: buffer-pool priming",
    ))
    return results


def test_fig16_priming(once):
    results = once(run_figure16)
    for bp_pages, (warmup, serialize, transfer, cold_p95, primed_p95) in results.items():
        # Priming is orders of magnitude faster than workload warm-up.
        assert warmup > 15 * (serialize + transfer), bp_pages
        # Primed pool: multiple-x lower p95 than a cold start.
        assert cold_p95 > 2.5 * primed_p95, bp_pages
