"""Using the lightweight remote-memory file API directly (Table 2).

Shows the substrate without the database on top: a memory pool (one
memory server whose proxy offers spare RAM to a broker), and the
Create/Open/Read/Write/Close/Delete
file API over RDMA — including what happens when a lease is lost
(best-effort semantics: the reader falls back, correctness intact).

Run:  python examples/remote_memory_file.py
"""

from repro.cluster import Cluster
from repro.harness.node import Topology
from repro.net import Network
from repro.remotefile import (
    AccessPolicy,
    RemoteMemoryFilesystem,
    RemoteMemoryUnavailable,
    StagingPool,
)
from repro.storage import GB, KB, MB


def main() -> None:
    cluster = Cluster(seed=1)
    pool = Topology(cluster=cluster, network=Network(cluster.sim))
    db = cluster.add_server("db")
    pool.network.attach(db)
    pool.add_memory_servers(1, memory_bytes=384 * GB, mr_bytes=64 * MB)
    # The memory server's local processes use most of its RAM; the proxy
    # pins what is left and registers it with the broker.
    mem = pool.memory_servers[0]
    mem.commit_memory(mem.memory_bytes - 2 * GB)
    fs = RemoteMemoryFilesystem(db, pool.broker, StagingPool(db), policy=AccessPolicy.SYNC)

    def scenario():
        yield from fs.initialize()
        offered = yield from pool.offer_memory(None)
        print(f"proxy offered {len(offered)} regions "
              f"({pool.broker.available_bytes() / MB:.0f} MB) to the broker")
        # Create = lease MRs; Open = connect queue pairs (Table 2).
        file = yield from fs.create("scratch", 256 * MB)
        yield from file.open()
        print(f"file of {file.size / MB:.0f} MB on providers {file.providers}")
        # An extent holds one object (here an 8K page image), moved over
        # one-sided RDMA with the timing of its size in bytes.
        page = {"page_no": 0, "rows": [(1, "hello remote memory")]}
        start = cluster.sim.now
        yield from file.write(0, 8 * KB, page)
        print(f"8K RDMA write: {cluster.sim.now - start:.1f} us")
        # Timed 8K read (the paper's ~10 us claim).
        start = cluster.sim.now
        data = yield from file.read(0, 8 * KB)
        assert data is page
        print(f"8K RDMA read of {data['rows']!r}: {cluster.sim.now - start:.1f} us")
        # The provider comes under local memory pressure and revokes
        # every lease: accesses fail cleanly, nothing crashes.
        yield from pool.proxies["mem0"].handle_memory_pressure(2 * GB)
        try:
            yield from file.read(0, 8 * KB)
        except RemoteMemoryUnavailable as exc:
            print(f"after revocation: {type(exc).__name__}: fall back to disk")
        yield from fs.delete(file)
        print("file deleted; leases relinquished")

    pool.run(scenario())


if __name__ == "__main__":
    main()
