"""Replicated metadata store backing the memory broker.

The paper stores all broker state in Zookeeper so that a broker failure
is tolerated by electing a new broker (Section 4.2).  We model the store
as a linearizable key-value service with a fixed operation latency
(quorum round trip).  The broker writes, deletes and lists keys; a
re-elected broker replays the ``leases/`` prefix.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Simulator
from ..sim.kernel import ProcessGenerator

__all__ = ["MetadataStore"]


class MetadataStore:
    """Zookeeper-flavoured KV store: every operation costs a quorum round."""

    def __init__(self, sim: Simulator, op_latency_us: float = 200.0):
        self.sim = sim
        self.op_latency_us = op_latency_us
        self._data: dict[str, Any] = {}
        self.operations = 0

    def _charge(self) -> ProcessGenerator:
        self.operations += 1
        yield self.sim.timeout(self.op_latency_us)

    def put(self, key: str, value: Any) -> ProcessGenerator:
        yield from self._charge()
        self._data[key] = value

    def update(self, key: str, value: Any) -> ProcessGenerator:
        """Overwrite ``key`` in one quorum round; like ZooKeeper's
        ``setData``, a key deleted meanwhile stays deleted."""
        yield from self._charge()
        if key in self._data:
            self._data[key] = value

    def delete(self, *keys: str) -> ProcessGenerator:
        """Delete ``keys`` in one quorum round."""
        yield from self._charge()
        self.drop(*keys)

    def drop(self, *keys: str) -> None:
        """Delete ``keys`` with no quorum round, as the store retires a
        record whose time ran out (an expired lease's)."""
        for key in keys:
            self._data.pop(key, None)

    def keys(self, prefix: str = "") -> ProcessGenerator:
        yield from self._charge()
        return self.peek_keys(prefix)

    # Synchronous peeks for tests/assertions (no latency charged).

    def peek(self, key: str) -> Optional[Any]:
        return self._data.get(key)

    def peek_keys(self, prefix: str = "") -> list[str]:
        """Sorted keys under ``prefix`` without charging quorum latency."""
        return sorted(k for k in self._data if k.startswith(prefix))
