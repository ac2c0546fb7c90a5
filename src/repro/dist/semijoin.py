"""Bloom-filter semi-join pushdown: filter the probe before the wire.

Rödiger et al. ("High-Speed Query Processing over High-Speed Networks")
show that even on fast fabrics, not shuffling a tuple at all beats
shuffling it quickly.  The pushdown here:

1. every fragment builds a Bloom filter over its **local build-side**
   join keys (:class:`BloomBuild` wraps the build scan, pass-through);
2. the fragments all-to-all exchange their filters (one small RDMA
   write per peer — a few KB, not the probe table) and OR them into the
   *global* filter;
3. the probe side's :class:`~repro.dist.exchange.ShuffleExchange`
   consults the filter (via a shared :class:`FilterSlot`) and drops
   probe rows whose key cannot be in any fragment's build side —
   before they are serialized or shipped.

The filter uses the same process-stable hash as partitioning, so
membership — and therefore bytes-shuffled — is identical on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..engine.costs import PER_ROW_HASH_BUILD_CPU_US
from ..engine.operators import ExecContext, Operator
from ..sim.kernel import ProcessGenerator
from .exchange import ExchangeRuntime
from .partition import stable_hash

__all__ = ["BloomFilter", "FilterSlot", "BloomBuild"]


class BloomFilter:
    """A fixed-geometry Bloom filter over join-key values.

    ``n_bits`` must be a power of two (so double hashing reduces with a
    mask); geometry is fixed per query so fragment filters OR together.
    """

    def __init__(self, n_bits: int = 1 << 15, hashes: int = 4):
        if n_bits <= 0 or n_bits & (n_bits - 1):
            raise ValueError("n_bits must be a positive power of two")
        self.n_bits = n_bits
        self.hashes = hashes
        self.bits = 0
        self.adds = 0

    def _probes(self, value: Any):
        mixed = stable_hash(value)
        h1 = mixed & (self.n_bits - 1)
        h2 = ((mixed >> 17) | 1) & (self.n_bits - 1)
        for i in range(self.hashes):
            yield (h1 + i * h2) & (self.n_bits - 1)

    def add(self, value: Any) -> None:
        for probe in self._probes(value):
            self.bits |= 1 << probe
        self.adds += 1

    def __contains__(self, value: Any) -> bool:
        for probe in self._probes(value):
            if not (self.bits >> probe) & 1:
                return False
        return True

    def union(self, other: "BloomFilter") -> None:
        if (other.n_bits, other.hashes) != (self.n_bits, self.hashes):
            raise ValueError("cannot union Bloom filters of different geometry")
        self.bits |= other.bits
        self.adds += other.adds

    @property
    def size_bytes(self) -> int:
        return self.n_bits // 8


@dataclass
class FilterSlot:
    """Mutable cell linking a BloomBuild to the ShuffleExchange that
    consumes its filter; empty until the build side has run."""

    filter: Optional[BloomFilter] = None


class BloomBuild(Operator):
    """Pass-through over the build side that publishes the global filter.

    Runs the child, folds its join keys into a local Bloom filter,
    all-to-all exchanges the fragments' filters
    (:meth:`~repro.dist.exchange.ExchangeRuntime.exchange_object`) and
    stores the union in ``slot`` — then returns the child's rows
    unchanged, so it nests anywhere the plain build scan would.
    """

    def __init__(
        self,
        child: Operator,
        key: Callable[[tuple], Any],
        runtime: ExchangeRuntime,
        exchange_id: str,
        slot: FilterSlot,
    ):
        self.child = child
        self.key = key
        self.runtime = runtime
        self.exchange_id = exchange_id
        self.slot = slot
        self.row_bytes = child.row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        local = BloomFilter()
        yield from ctx.cpu.compute(len(rows) * PER_ROW_HASH_BUILD_CPU_US)
        for row in rows:
            local.add(self.key(row))
        merged = BloomFilter()
        for remote in (
            yield from self.runtime.exchange_object(
                ctx, self.exchange_id, local, local.size_bytes
            )
        ):
            merged.union(remote)
        self.slot.filter = merged
        return rows
