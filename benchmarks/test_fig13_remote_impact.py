"""Figure 13: impact on the server whose memory is accessed remotely.

Server SB runs a CPU-intensive RangeScan entirely from local memory
while server SA streams 8K reads out of SB's spare memory — over RDMA
(one-sided; no SB CPU) or over TCP/SMB (SB's CPU processes every
message).  The paper: TCP costs SB ~10 % throughput and ~20 % at the
99th percentile; RDMA costs nothing measurable.
"""

from repro.broker import MemoryBroker, MemoryProxy
from repro.cluster import Cluster
from repro.harness import format_table
from repro.net import Network, SmbClient, SmbFileServer
from repro.remotefile import RemoteMemoryFilesystem, StagingPool
from repro.storage import GB, KB, RamDrive, Raid0Array, SsdDevice
from repro.engine import Database
from repro.workloads import RangeScanConfig, build_customer_table, run_rangescan

N_ROWS = 60_000
WORKERS = 24
QUERIES = 20


def _make_rig(mode: str):
    """SB: CPU-bound database; SA: remote reader via ``mode``."""
    cluster = Cluster(seed=3)
    network = Network(cluster.sim)
    sb = cluster.add_server("SB", memory_bytes=384 * GB)
    sa = cluster.add_server("SA", memory_bytes=384 * GB)
    network.attach(sb)
    network.attach(sa)
    hdd = sb.attach_device("hdd", Raid0Array(cluster.sim, spindles=20,
                                             rng=cluster.rng.stream("hdd")))
    sb.attach_device("ssd", SsdDevice(cluster.sim))
    db = Database(sb, bp_pages=16384, data_device=hdd)  # everything fits
    table = build_customer_table(db, N_ROWS)
    sim = cluster.sim
    reader_processes = []

    if mode == "RDMA":
        broker = MemoryBroker(sim)
        fs = RemoteMemoryFilesystem(sa, broker, StagingPool(sa))

        def setup():
            yield from fs.initialize()
            proxy = MemoryProxy(sb, broker, mr_bytes=256 * 1024 * 1024)
            yield from proxy.offer_available(limit_bytes=9 * GB)
            file = yield from fs.create("ext", 8 * GB)
            yield from file.open()
            return file

        file = sim.run_until_complete(sim.spawn(setup()))

        def reader(thread: int):
            rng = cluster.rng.stream(f"reader{thread}")
            while True:
                offset = int(rng.integers(0, 8 * GB // (8 * KB))) * 8 * KB
                yield from file.read_nodata(offset, 8 * KB)

        reader_processes = [sim.spawn(reader(t)) for t in range(20)]
    elif mode == "TCP":
        drive = sb.attach_device("ramdrive", RamDrive(sim))
        file_server = SmbFileServer(sb, drive)
        client = SmbClient(sa, file_server)

        def reader(thread: int):
            rng = cluster.rng.stream(f"reader{thread}")
            while True:
                offset = int(rng.integers(0, 8 * GB // (8 * KB))) * 8 * KB
                yield from client.read(offset, 8 * KB)

        reader_processes = [sim.spawn(reader(t)) for t in range(20)]

    return cluster, db, table, reader_processes


def run_figure13():
    results = {}
    rows = []
    for mode in ("Default", "RDMA", "TCP"):
        cluster, db, table, _readers = _make_rig(mode)
        # CPU-intensive local workload: large ranges, all pages cached.
        config = RangeScanConfig(
            n_rows=N_ROWS, workers=WORKERS, queries_per_worker=QUERIES,
            range_size=10_000, seed=4,
        )
        run_rangescan(db, table, RangeScanConfig(
            n_rows=N_ROWS, workers=WORKERS, queries_per_worker=5,
            range_size=10_000, seed=3,
        ), rng=cluster.rng.stream("warm"))
        report = run_rangescan(db, table, config, rng=cluster.rng.stream("m"))
        results[mode] = (
            report.throughput,
            report.latency.mean / 1000.0,
            report.latency.p99 / 1000.0,
        )
        rows.append([mode, *results[mode]])
    print()
    print(format_table(
        ["SB memory accessed via", "SB queries/sec", "avg ms", "p99 ms"], rows,
        title="Figure 13: impact of remote access on the memory server",
    ))
    return results


def test_fig13_remote_impact(once):
    results = once(run_figure13)
    default_qps, default_avg, default_p99 = results["Default"]
    rdma_qps, rdma_avg, rdma_p99 = results["RDMA"]
    tcp_qps, tcp_avg, tcp_p99 = results["TCP"]
    # RDMA: no noticeable impact on the remote server's workload.
    assert abs(rdma_qps - default_qps) / default_qps < 0.03
    assert rdma_p99 < default_p99 * 1.08
    # TCP: ~10% throughput degradation, worse at the tail.
    assert tcp_qps < 0.97 * default_qps
    assert tcp_avg > rdma_avg
    assert tcp_p99 > rdma_p99
