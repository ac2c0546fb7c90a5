"""Cluster and server model.

A :class:`Cluster` is the simulated equivalent of the paper's ten-server
Infiniband testbed (Table 3): every :class:`Server` has a CPU (20 cores /
40 logical processors), local memory, an RDMA-capable NIC port, and
whatever block devices the experiment attaches (RAID-0 HDD array, SSD,
RamDrive).

Servers carry an ``alive`` flag that NICs and devices consult; the
fault-injection subsystem (:mod:`repro.faults`) drives it through the
public :meth:`Server.fail` / :meth:`Server.restore` hooks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .sim import Cpu, RngRegistry, Simulator
from .storage import GB, BlockDevice

__all__ = ["Server", "Cluster", "ServerSpec"]


@dataclass
class ServerSpec:
    """Hardware profile of one server (defaults mirror Table 3)."""

    cores: int = 20
    memory_bytes: int = 384 * GB
    name: str = "server"


class Server:
    """One machine: CPU, memory accounting, NIC port, attached devices."""

    def __init__(self, sim: Simulator, spec: ServerSpec):
        self.sim = sim
        self.name = spec.name
        self.spec = spec
        self.cpu = Cpu(sim, cores=spec.cores, name=spec.name)
        self.memory_bytes = spec.memory_bytes
        self.memory_committed = 0
        self.devices: dict[str, BlockDevice] = {}
        # Network endpoints are attached by Network.attach().
        self.nic = None  # type: ignore[assignment]
        self.tcp = None  # type: ignore[assignment]
        #: Fault state: devices and NICs refuse service while False.
        self.alive = True
        #: Issues the ids of the memory regions pinned here.
        self.mr_ids = itertools.count(1)

    # -- fault hooks -------------------------------------------------------

    def fail(self) -> None:
        """Crash the server: NIC goes dark, in-flight transfers abort.

        The server's memory contents are considered lost; higher layers
        (broker, proxies, buffer-pool extension) learn about the crash
        through their own public ``on_fault``-style hooks, driven by the
        fault-injection subsystem.
        """
        if not self.alive:
            return
        self.alive = False
        if self.nic is not None:
            self.nic.fail()

    def restore(self) -> None:
        """Bring the server back (empty memory, NIC reconnected)."""
        if self.alive:
            return
        self.alive = True
        if self.nic is not None:
            self.nic.restore()

    # -- memory accounting ------------------------------------------------

    @property
    def memory_available(self) -> int:
        return self.memory_bytes - self.memory_committed

    def commit_memory(self, amount: int) -> None:
        """Commit memory to a local process; raises if overcommitted."""
        if amount > self.memory_available:
            raise MemoryError(
                f"{self.name}: cannot commit {amount} bytes, "
                f"only {self.memory_available} available"
            )
        self.memory_committed += amount

    def release_memory(self, amount: int) -> None:
        self.memory_committed -= amount
        if self.memory_committed < 0:
            raise ValueError(f"{self.name}: memory over-released")

    # -- devices -----------------------------------------------------------

    def attach_device(self, key: str, device: BlockDevice) -> BlockDevice:
        if key in self.devices:
            raise ValueError(f"{self.name}: device {key!r} already attached")
        self.devices[key] = device
        device.owner = self
        return device

    def device(self, key: str) -> BlockDevice:
        return self.devices[key]

    def __repr__(self) -> str:
        return f"<Server {self.name} cores={self.spec.cores}>"


class Cluster:
    """A set of servers sharing one simulator, RNG registry and network."""

    def __init__(self, sim: Simulator | None = None, seed: int = 0):
        self.sim = sim if sim is not None else Simulator()
        self.rng = RngRegistry(seed)
        self.servers: dict[str, Server] = {}

    def add_server(self, name: str, cores: int = 20, memory_bytes: int = 384 * GB) -> Server:
        if name in self.servers:
            raise ValueError(f"server {name!r} already exists")
        server = Server(self.sim, ServerSpec(cores=cores, memory_bytes=memory_bytes, name=name))
        self.servers[name] = server
        return server

    def server(self, name: str) -> Server:
        return self.servers[name]

    def __iter__(self):
        return iter(self.servers.values())

    def __len__(self) -> int:
        return len(self.servers)
