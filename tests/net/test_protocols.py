"""Tests for the TCP, SMB and SMB Direct protocol models."""

import pytest

from repro.cluster import Cluster
from repro.net import Network, SmbClient, SmbDirectClient, SmbFileServer, TcpChannel
from repro.sim import Event
from repro.storage import KB, MB, RamDrive


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
