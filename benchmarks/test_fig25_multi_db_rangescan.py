"""Figure 25: several database servers sharing one memory server's RAM.

Each DB server runs RangeScan with a small local pool and a BPExt
leased from the single provider.  Aggregate throughput scales with the
number of DB servers until the provider's NIC saturates; after that
latency climbs without much aggregate gain.
"""

from repro.cluster import Cluster
from repro.harness import format_table
from repro.harness.node import Node, Topology
from repro.net import Network
from repro.remotefile import AccessPolicy
from repro.storage import GB, MB
from repro.tiers import TierDef, TierSpec
from repro.workloads import RangeScanConfig, build_customer_table, rangescan_clients, run_clients

N_ROWS = 25_000   # ~6 MB per DB server
BP_PAGES = 128
EXT_PAGES = 1280  # covers the table

#: One remote extension tier per DB server; nothing else leaves the node.
PLAN = TierSpec(
    name="fig25", extension=(TierDef(medium="remote"),), protocol="ndspi"
).resolve(analytic=False, bpext_pages=EXT_PAGES, tempdb_pages=0)


def _build(n_db):
    cluster = Cluster(seed=12)
    pool = Topology(cluster=cluster, network=Network(cluster.sim))
    pool.add_memory_servers(1, memory_bytes=384 * GB, mr_bytes=32 * MB)
    pool.run(pool.offer_memory(n_db * 64 * MB + 128 * MB))
    databases = []
    for index in range(n_db):
        node = Node(cluster, pool.network, f"db{index}", cores=20, memory_bytes=384 * GB,
                    spindles=20, hdd_stream=f"hdd{index}")
        fs = node.attach_remote_fs(pool.broker, schedulers=8, policy=AccessPolicy.SYNC)

        def setup(fs=fs, node=node, index=index):
            yield from fs.initialize()
            yield from node.open_remote_stores(
                PLAN, file_name=lambda _store: f"ext{index}", spread=False)

        pool.run(setup())
        database = node.build_database(PLAN, bp_pages=BP_PAGES)
        table = build_customer_table(database, N_ROWS)
        databases.append((database, table))
    return cluster, databases


def run_figure25():
    results = {}
    rows = []
    for n_db in (1, 2, 4, 8):
        cluster, databases = _build(n_db)
        # Warm every DB server's extension via the workload.
        warm_cfg = RangeScanConfig(n_rows=N_ROWS, workers=32,
                                   queries_per_worker=25, seed=5)
        _run_all(cluster, databases, warm_cfg, "w")
        # Measure all servers concurrently.
        config = RangeScanConfig(n_rows=N_ROWS, workers=32,
                                 queries_per_worker=25, seed=6)
        run = _run_all(cluster, databases, config, "m")
        # Server i ran clients [i * workers, (i + 1) * workers).
        per_server = [
            [end - begin for client, begin, end, _ in run.records
             if client // config.workers == server]
            for server in range(n_db)
        ]
        aggregate = sum(len(lat) / (run.elapsed_us / 1e6) for lat in per_server)
        latency = sum(sum(lat) / len(lat) for lat in per_server) / n_db / 1000.0
        results[n_db] = (aggregate, latency)
        rows.append([n_db, aggregate, latency])
    print()
    print(format_table(
        ["DB servers", "aggregate queries/sec", "avg latency ms"], rows,
        title="Figure 25: RangeScan from multiple DB servers on one provider",
    ))
    return results


def _run_all(cluster, databases, config, stream):
    """RangeScan on every DB server at once, from one shared RNG stream."""
    rng = cluster.rng.stream(stream)
    return run_clients(cluster.sim, [
        client
        for database, table in databases
        for client in rangescan_clients(database, table, config, rng=rng)
    ])


def test_fig25_multi_db_rangescan(once):
    results = once(run_figure25)
    # Aggregate throughput grows with DB servers before saturation.
    assert results[2][0] > 1.6 * results[1][0]
    assert results[4][0] > 2.4 * results[1][0]
    # Adding servers beyond saturation mostly adds latency.
    assert results[8][1] > results[1][1]
