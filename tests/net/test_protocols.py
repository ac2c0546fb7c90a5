"""Tests for the TCP, SMB and SMB Direct protocol models."""

import pytest

from repro.cluster import Cluster
from repro.engine import DevicePageFile
from repro.engine.page import PAGE_SIZE, Page
from repro.net import Network, SmbClient, SmbDirectClient, SmbFileServer, TcpChannel
from repro.net.tcp import TcpProfile
from repro.sim import Event
from repro.storage import KB, MB, BlockDevice, IoOp, RamDrive


def make_pair():
    cluster = Cluster()
    network = Network(cluster.sim)
    client = cluster.add_server("client")
    server = cluster.add_server("server")
    network.attach(client)
    network.attach(server)
    return cluster, client, server


def complete(sim, work):
    """Run a generator — or a verb / transfer, which is an event — to its end."""
    return sim.run_until_complete(work if isinstance(work, Event) else sim.spawn(work))


class TestTcp:
    def test_send_charges_both_cpus(self):
        cluster, client, server = make_pair()
        channel = TcpChannel(client, server)
        complete(cluster.sim, channel.send(512 * KB))
        # Both sides burned CPU (kernel + copies) — unlike RDMA.
        assert client.cpu.cores.utilization() > 0
        assert server.cpu.cores.utilization() > 0

    def test_latency_grows_with_size(self):
        cluster, client, server = make_pair()
        channel = TcpChannel(client, server)
        start = cluster.sim.now
        complete(cluster.sim, channel.send(8 * KB))
        small = cluster.sim.now - start
        start = cluster.sim.now
        complete(cluster.sim, channel.send(512 * KB))
        large = cluster.sim.now - start
        assert large > 3 * small

    def test_byte_accounting(self):
        cluster, client, server = make_pair()
        channel = TcpChannel(client, server)
        complete(cluster.sim, channel.send(1000))
        assert client.tcp.bytes_sent == 1000
        assert server.tcp.bytes_received == 1000

    def test_queued_send_pays_the_link_state_at_its_grant(self):
        """Two sends reach the sender pipe together; the link degrades 4x
        while the second queues.  The second pays the degraded pipe time:
        the time is read when the pipe is granted, not when it is asked for."""
        cluster, client, server = make_pair()
        sim = cluster.sim
        channel = TcpChannel(client, server)
        profile = TcpProfile()
        size = 1 * MB
        cpu = profile.per_message_cpu_us + size / profile.copy_bytes_per_us
        pipe = size / profile.bandwidth_bytes_per_us
        done = []

        def sender():
            yield from channel.send(size)
            done.append(sim.now)

        def degrade():
            yield sim.timeout(cpu + pipe / 2)  # the second send is queued now
            client.tcp.degrade(4.0)

        sim.spawn(sender())
        sim.spawn(sender())
        sim.spawn(degrade())
        sim.run()
        # First: cpu, pipe, stack, rx pipe, cpu.  Second: its degraded tx
        # pipe ends at cpu + 5 pipe; then stack, rx pipe, cpu.
        assert done[0] == pytest.approx(2 * cpu + 2 * pipe + profile.stack_latency_us)
        assert done[1] == pytest.approx(2 * cpu + 6 * pipe + profile.stack_latency_us)


class TestSmb:
    def make_smb(self, direct=False):
        cluster, client, server = make_pair()
        drive = server.attach_device("ramdrive", RamDrive(cluster.sim))
        file_server = SmbFileServer(server, drive)
        cls = SmbDirectClient if direct else SmbClient
        return cluster, client, server, cls(client, file_server), file_server

    def test_smb_read_serves_request(self):
        cluster, _client, _server, smb, file_server = self.make_smb()
        complete(cluster.sim, smb.read(0, 8 * KB))
        assert file_server.requests_served == 1

    def test_smb_direct_faster_than_smb(self):
        cluster, *_rest, smb, _fs = self.make_smb(direct=False)
        start = cluster.sim.now
        complete(cluster.sim, smb.read(0, 8 * KB))
        tcp_latency = cluster.sim.now - start
        cluster2, *_rest2, smbd, _fs2 = self.make_smb(direct=True)
        start = cluster2.sim.now
        complete(cluster2.sim, smbd.read(0, 8 * KB))
        direct_latency = cluster2.sim.now - start
        assert direct_latency < tcp_latency

    def test_smb_direct_spares_server_cpu(self):
        cluster, _client, server, smbd, _fs = self.make_smb(direct=True)
        for _ in range(20):
            complete(cluster.sim, smbd.read(0, 8 * KB))
        direct_busy = server.cpu.cores.utilization()
        cluster2, _client2, server2, smb, _fs2 = self.make_smb(direct=False)
        for _ in range(20):
            complete(cluster2.sim, smb.read(0, 8 * KB))
        tcp_busy = server2.cpu.cores.utilization()
        assert tcp_busy > 2 * direct_busy

    def test_write_path(self):
        cluster, _client, _server, smb, file_server = self.make_smb()
        complete(cluster.sim, smb.write(4096, 8 * KB))
        assert file_server.device.bytes_written == 8 * KB

    @pytest.mark.parametrize("direct", [False, True], ids=["smb", "smbd"])
    def test_client_is_a_block_device(self, direct):
        cluster, _client, _server, smb, file_server = self.make_smb(direct)
        assert isinstance(smb, BlockDevice)
        latency = complete(cluster.sim, smb.read(0, 8 * KB))
        assert (smb.reads, smb.bytes_read) == (1, 8 * KB)
        assert list(smb.read_latency.samples) == [latency] and latency > 0
        # Never attached to a server, so submit() never refuses.
        assert smb.owner is None
        latency = complete(cluster.sim, smb.submit(IoOp.WRITE, 8 * KB, 16 * KB))
        assert (smb.writes, smb.bytes_written) == (1, 16 * KB)
        assert list(smb.write_latency.samples) == [latency]
        assert file_server.requests_served == 2

    @pytest.mark.parametrize("direct", [False, True], ids=["smb", "smbd"])
    def test_client_mounts_as_a_page_file(self, direct):
        cluster, client, _server, smb, _fs = self.make_smb(direct)
        store = DevicePageFile(7, client, smb, capacity_pages=32, chunk_pages=None)
        complete(cluster.sim, store.write_page(Page.build(7, 3, [(3, "one")])))
        assert complete(cluster.sim, store.read_page(3)).rows == [(3, "one")]
        pages = [Page.build(7, 8 + n, [(n, "batch")]) for n in range(4)]
        complete(cluster.sim, store.write_batch(8, pages))
        back = complete(cluster.sim, store.read_batch(8, 4))
        assert [page.rows for page in back] == [[(n, "batch")] for n in range(4)]
        # A linear file: one I/O per call, whole extents at slot * PAGE_SIZE.
        assert (smb.reads, smb.writes) == (2, 2)
        assert (smb.bytes_read, smb.bytes_written) == (5 * PAGE_SIZE, 5 * PAGE_SIZE)

    def test_worker_pool_limits_concurrency(self):
        cluster, _client, _server, smb, file_server = self.make_smb()
        sim = cluster.sim
        finish = []

        def reader(tag):
            yield from smb.read(tag * 8 * KB, 8 * KB)
            finish.append(sim.now)

        for tag in range(12):
            sim.spawn(reader(tag))
        sim.run()
        # 12 requests through 4 workers: completion times stagger.
        assert finish[-1] > finish[0] * 1.5


class TestNicPort:
    def test_transfer_accounts_bytes(self):
        cluster, a, b = make_pair()
        complete(cluster.sim, a.nic.transfer(b.nic, 1 * MB))
        assert a.nic.bytes_sent == 1 * MB
        assert b.nic.bytes_received == 1 * MB

    def test_transfer_time_scales_with_size(self):
        cluster, a, b = make_pair()
        small = complete(cluster.sim, a.nic.transfer(b.nic, 8 * KB))
        large = complete(cluster.sim, a.nic.transfer(b.nic, 8 * MB))
        assert large > 100 * small

    def test_tx_pipe_serializes(self):
        cluster, a, b = make_pair()
        sim = cluster.sim
        done = []

        def sender(tag):
            yield a.nic.transfer(b.nic, 1 * MB)
            done.append((tag, sim.now))

        sim.spawn(sender(0))
        sim.spawn(sender(1))
        sim.run()
        assert done[1][1] > done[0][1] * 1.3

    def test_double_attach_rejected(self):
        cluster = Cluster()
        network = Network(cluster.sim)
        server = cluster.add_server("s")
        network.attach(server)
        with pytest.raises(ValueError):
            network.attach(server)
