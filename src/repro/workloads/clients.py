"""The one closed-loop client driver every workload runs its ops through.

A *client* is an iterable of ops, run one after another; an *op* is a
zero-argument callable returning a generator whose return value is
``(label, result)``: the label names what the op was (``"read"`` or
``"update"``, a query, a transaction, an I/O target) and the result is
its answer.  Every client is one process, every op begins and ends
here, and one :class:`ClientRun` collects the whole run.

:func:`run_clients` drives the clients from the host; inside a running
process, ``run = yield from drive_clients(sim, clients)`` does the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from ..sim import LatencyRecorder, Simulator
from ..sim.kernel import AllOf, Process, ProcessGenerator

__all__ = ["ClientRun", "Op", "drive_clients", "run_clients"]

Op = Callable[[], ProcessGenerator]


@dataclass
class ClientRun:
    """What a set of closed-loop clients did, in virtual time."""

    begin_us: float
    elapsed_us: float = 0.0
    #: Every op's latency, in completion order.
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    by_label: dict[str, LatencyRecorder] = field(default_factory=dict)
    #: ``(client, begin_us, end_us, result)`` per op, in completion order.
    records: list[tuple[int, float, float, Any]] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.records)

    @property
    def throughput(self) -> float:
        """Ops per virtual second."""
        return self.ops / (self.elapsed_us / 1e6) if self.elapsed_us > 0 else 0.0


def worker(sim: Simulator, index: int, ops: Iterable[Op], run: ClientRun) -> ProcessGenerator:
    """One client: its ops back to back, each recorded as it ends.

    A process is named after its generator function, so a trace shows
    every client's thread as ``worker``."""
    for op in ops:
        begin = sim.now
        label, result = yield from op()
        latency = sim.now - begin
        run.latency.record(latency)
        recorder = run.by_label.get(label)
        if recorder is None:
            recorder = run.by_label[label] = LatencyRecorder(label)
        recorder.record(latency)
        run.records.append((index, begin, sim.now, result))


def _start(sim: Simulator, clients: Iterable[Iterable[Op]]) -> tuple[ClientRun, list[Process]]:
    run = ClientRun(sim.now)
    return run, [sim.spawn(worker(sim, index, ops, run)) for index, ops in enumerate(clients)]


def _finish(sim: Simulator, run: ClientRun, processes: list[Process]) -> ProcessGenerator:
    yield AllOf(sim, processes)
    run.elapsed_us = sim.now - run.begin_us
    return run


def drive_clients(sim: Simulator, clients: Iterable[Iterable[Op]]) -> ProcessGenerator:
    """Run ``clients`` to completion from inside a running process."""
    run, processes = _start(sim, clients)
    return (yield from _finish(sim, run, processes))


def run_clients(sim: Simulator, clients: Iterable[Iterable[Op]]) -> ClientRun:
    """Spawn one process per client, in client order, then drive one
    waiter on all of them to completion."""
    run, processes = _start(sim, clients)
    return sim.run_until_complete(sim.spawn(_finish(sim, run, processes)))
