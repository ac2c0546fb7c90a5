"""SMB network file protocol over TCP or over RDMA (SMB Direct).

These are the two off-the-shelf baselines of Table 5:

* **SMB+RamDrive** — the classic SMB file protocol over TCP/IP against
  a RAM drive on the memory server.  Every request is parsed and served
  by a worker on the *remote* server's CPU, and the payload rides the
  TCP path with its kernel copies.
* **SMBDirect+RamDrive** — SMB 3.0 with RDMA transport.  Payload moves
  via NIC DMA (no remote-CPU per-byte cost), but each request still
  traverses the client SMB/file-system stack and a thin server-side
  dispatch, which caps small-I/O rates well below raw verbs — the
  ~3.4x random-I/O gap between SMB Direct and Custom in Figure 3.

Both serve a :class:`~repro.storage.BlockDevice` (the RamDrive), and
both clients *are* block devices: the protocol stack is their service
time (``_service``), and they inherit the accounting, the
``{name}.{op}`` disk span and ``submit``.  The engine therefore mounts a
remote RamDrive as SQL Server does, as an ordinary data file (a
:class:`~repro.engine.DevicePageFile` over the client), and the I/O
benchmark drives a client as it drives a local disk.  A client is never
attached to a server, so ``submit`` never refuses.
"""

from __future__ import annotations

from ..cluster import Server
from ..sim import Resource
from ..sim.kernel import ProcessGenerator
from ..storage import BlockDevice, IoOp
from .tcp import TcpChannel

__all__ = ["SmbFileServer", "SmbClient", "SmbDirectClient"]

#: Request message size on the wire (SMB header + file handle + range).
_REQUEST_BYTES = 256


class SmbFileServer:
    """The server half: a worker pool fronting a local block device."""

    def __init__(self, server: Server, device: BlockDevice, workers: int = 4):
        self.server = server
        self.device = device
        self.workers = Resource(server.sim, capacity=workers, name=f"{server.name}.smb.workers")
        self.requests_served = 0

    def serve(self, op: IoOp, offset: int, size: int, request_cpu_us: float) -> ProcessGenerator:
        """Parse + dispatch + device access, on a pool worker."""
        with self.server.sim.tracer.span("smb.serve", cat="rpc", op=op.value, size=size):
            yield self.workers.request()
            try:
                yield from self.server.cpu.compute(request_cpu_us)
                yield from self.device.io(op, offset, size)
            finally:
                self.workers.release()
        self.requests_served += 1


class SmbClient(BlockDevice):
    """SMB over TCP: client half, one connection per (client, server)."""

    #: Client-side SMB/file-system stack CPU per request.
    CLIENT_STACK_CPU_US = 10.0
    #: Server-side request parsing/dispatch CPU per request (on top of
    #: the TCP per-message and copy costs).
    SERVER_REQUEST_CPU_US = 45.0

    def __init__(self, client: Server, file_server: SmbFileServer):
        super().__init__(client.sim, "smb")
        self.client = client
        self.file_server = file_server
        self._to_server = TcpChannel(client, file_server.server)
        self._from_server = TcpChannel(file_server.server, client)

    def _service(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        yield from self.client.cpu.compute(self.CLIENT_STACK_CPU_US)
        if op is IoOp.WRITE:
            # Payload travels with the request.
            yield from self._to_server.send(_REQUEST_BYTES + size)
            yield from self.file_server.serve(op, offset, size, self.SERVER_REQUEST_CPU_US)
            yield from self._from_server.send(_REQUEST_BYTES)
        else:
            yield from self._to_server.send(_REQUEST_BYTES)
            yield from self.file_server.serve(op, offset, size, self.SERVER_REQUEST_CPU_US)
            yield from self._from_server.send(_REQUEST_BYTES + size)


class SmbDirectClient(BlockDevice):
    """SMB 3.0 over RDMA: DMA data path, but still a file protocol.

    The serialized client-stack cost (`PER_MESSAGE_US`) models the SMB
    credit machinery, I/O manager and file-system layers that remain on
    the request path even when payload moves by RDMA.
    """

    #: Serialized client SMB/FS stack occupancy per request.
    PER_MESSAGE_US = 5.5
    #: Client CPU per request (IRP setup, completion processing).
    CLIENT_CPU_US = 3.0
    #: Server-side dispatch CPU per request (RDMA placement is cheap).
    SERVER_REQUEST_CPU_US = 3.0

    def __init__(self, client: Server, file_server: SmbFileServer):
        if client.nic is None or file_server.server.nic is None:
            raise ValueError("SMB Direct requires RDMA-attached servers")
        super().__init__(client.sim, "smbd")
        self.client = client
        self.file_server = file_server
        self._stack = Resource(client.sim, capacity=1, name=f"{client.name}.smbd.stack")

    def _service(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        server = self.file_server.server
        yield from self.client.cpu.compute(self.CLIENT_CPU_US)
        # Request passes through the serialized client stack, then the
        # RDMA-transported request reaches the server.
        yield from self._stack.use(self.PER_MESSAGE_US)
        yield self.client.nic.send_control(server.nic)
        yield from self.file_server.serve(op, offset, size, self.SERVER_REQUEST_CPU_US)
        # Payload rides NIC DMA engines: no per-byte CPU on either side.
        if op is IoOp.WRITE:
            yield self.client.nic.transfer(server.nic, size)
        else:
            yield server.nic.transfer(self.client.nic, size)
