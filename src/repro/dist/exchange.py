"""Exchange operators: RDMA shuffle / gather between shards.

The data path follows the staging-buffer discipline the paper uses for
pages (Section 4.1.4), applied to tuple batches:

* At bootstrap every receiver **pre-registers** one staging
  :class:`~repro.net.rdma.MemoryRegion` per incoming channel —
  ``credits`` slots of ``slot_bytes`` each — because registering
  memory per transfer would cost as much as the transfer itself.
* **Credit-based flow control**: a sender must hold a credit (one
  staging slot) before it may RDMA-write a batch; the receiver returns
  the credit with a small control message once its drain process has
  copied the batch out of the staging slot into an unbounded local
  inbox.  Credits therefore bound *staging occupancy*, never the
  merge order — which is what makes the protocol deadlock-free under
  any interleaving: drains always run, so every credit comes back.
* **Deterministic merge**: receivers consume exactly one batch per
  still-active sender per rotation, in sender-index order, blocking
  until that sender's batch arrives.  Arrival *timing* (and therefore
  link speed, degradation, credit stalls) cannot reorder rows.

CPU costs are charged via the cost model
(:data:`~repro.engine.costs.PER_ROW_SERIALIZE_CPU_US` on the sender,
``PER_ROW_DESERIALIZE_CPU_US`` on the receiver's drain,
``EXCHANGE_BATCH_CPU_US`` per batch on each side); wire time is the
NICs' real transfer path, so exchanges contend with page traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..cluster import Server
from ..engine.costs import (
    EXCHANGE_BATCH_CPU_US,
    PER_ROW_DESERIALIZE_CPU_US,
    PER_ROW_HASH_PROBE_CPU_US,
    PER_ROW_SCAN_CPU_US,
    PER_ROW_SERIALIZE_CPU_US,
)
from ..engine.operators import ExecContext, Operator
from ..net import QueuePair, RdmaError, RdmaRegistrar
from ..net.fabric import NetworkDown
from ..sim.kernel import Interrupt, ProcessGenerator, Store
from ..telemetry.tracer import NOOP_SPAN

__all__ = [
    "ExchangeError",
    "ExchangeStats",
    "ExchangeRuntime",
    "ShuffleExchange",
    "GatherExchange",
    "EOS_BYTES",
]

#: Wire size charged for an end-of-stream control batch.
EOS_BYTES = 64

#: Poison pill a broken channel's drain injects into its inboxes so
#: merges fail deterministically instead of waiting forever.
_POISON = object()


class ExchangeError(RuntimeError):
    """A channel broke (RDMA failure, endpoint down) mid-exchange."""


@dataclass
class ExchangeStats:
    """Cumulative per-exchange-id counters (across all fragments)."""

    exchange_id: str
    rows: int = 0
    bytes: int = 0
    batches: int = 0
    credit_stalls_us: float = 0.0


@dataclass
class _Channel:
    """One direction of the fabric: sender server -> receiver server."""

    sender: Server
    receiver: Server
    qp: QueuePair
    region: Any  # staging MemoryRegion on the receiver
    credits: Store  # free staging-slot offsets, granted to the sender
    landed: Store  # written slot offsets, consumed by the drain
    broken: Optional[str] = None


class ExchangeRuntime:
    """The exchange fabric for one cluster of DB servers.

    Owns the all-pairs channels, their staging registrations, the
    always-running drain processes and the per-exchange inboxes; shared
    by every exchange operator in every plan on the cluster.
    """

    def __init__(self, servers: list[Server], credits: int = 4, slot_bytes: int = 64 * 1024):
        if credits < 1:
            raise ValueError("need at least one credit per channel")
        self.servers = list(servers)
        self.credits = credits
        self.slot_bytes = slot_bytes
        self.sim = servers[0].sim
        self.registrars = [RdmaRegistrar(server) for server in self.servers]
        self.channels: dict[tuple[int, int], _Channel] = {}
        self.stats: dict[str, ExchangeStats] = {}
        self._inboxes: dict[tuple[str, int, int], Store] = {}

    def bootstrap(self) -> ProcessGenerator:
        """Register staging buffers, connect QPs, start the drains."""
        for dst in range(len(self.servers)):
            for src in range(len(self.servers)):
                if src == dst:
                    continue
                region = yield from self.registrars[dst].register(
                    self.credits * self.slot_bytes
                )
                channel = _Channel(
                    sender=self.servers[src],
                    receiver=self.servers[dst],
                    qp=QueuePair(self.servers[src], self.servers[dst]),
                    region=region,
                    credits=Store(self.sim, name=f"credits.{src}->{dst}"),
                    landed=Store(self.sim, name=f"landed.{src}->{dst}"),
                )
                for slot in range(self.credits):
                    channel.credits.put(slot * self.slot_bytes)
                self.channels[(src, dst)] = channel
                self.sim.spawn(self._drain(channel, src, dst))

    def stat(self, exchange_id: str) -> ExchangeStats:
        if exchange_id not in self.stats:
            self.stats[exchange_id] = ExchangeStats(exchange_id)
        return self.stats[exchange_id]

    def inbox(self, exchange_id: str, receiver: int, sender: int) -> Store:
        key = (exchange_id, receiver, sender)
        if key not in self._inboxes:
            self._inboxes[key] = Store(
                self.sim, name=f"inbox.{exchange_id}.{sender}->{receiver}"
            )
        return self._inboxes[key]

    # -- data path --------------------------------------------------------

    def send(
        self,
        ctx: ExecContext,
        exchange_id: str,
        dest: int,
        payload: Optional[list],
        nbytes: int,
    ) -> ProcessGenerator:
        """Ship one batch (``None`` = end of stream) to fragment ``dest``."""
        stats = self.stat(exchange_id)
        nrows = len(payload) if payload is not None else 0
        source = ctx.fragment_index
        if dest == source:
            # Local handoff: no wire, no serialization — one batch touch.
            yield from ctx.cpu.compute(EXCHANGE_BATCH_CPU_US)
            self.inbox(exchange_id, dest, source).put(payload)
            stats.batches += 1
            stats.rows += nrows
            ctx.record_exchange(nrows, 0)
            return
        channel = self.channels[(source, dest)]
        tracer = self.sim.tracer
        span = (
            tracer.span(
                "dist.exchange.send", cat="dist",
                exchange=exchange_id, dest=self.servers[dest].name,
                rows=nrows, size=nbytes,
            )
            if tracer.enabled else NOOP_SPAN
        )
        with span:
            if channel.broken:
                raise ExchangeError(
                    f"exchange {exchange_id}: channel to {channel.receiver.name}"
                    f" is broken ({channel.broken})"
                )
            stall_from = self.sim.now
            slot = yield channel.credits.get()
            stalled = self.sim.now - stall_from
            if stalled > 0:
                stats.credit_stalls_us += stalled
                ctx.metrics.credit_stalls_us += stalled
            yield from ctx.cpu.compute(
                EXCHANGE_BATCH_CPU_US + nrows * PER_ROW_SERIALIZE_CPU_US
            )
            if channel.broken:
                raise ExchangeError(
                    f"exchange {exchange_id}: channel to {channel.receiver.name}"
                    f" broke while serializing ({channel.broken})"
                )
            yield channel.qp.write(
                channel.region, slot, size=max(1, nbytes),
                obj=(ctx.fragment_index, exchange_id, payload, nrows),
            )
            channel.landed.put(slot)
        stats.batches += 1
        stats.rows += nrows
        stats.bytes += nbytes
        ctx.record_exchange(nrows, nbytes)

    def _drain(self, channel: _Channel, src: int, dst: int) -> ProcessGenerator:
        """Perpetual receiver-side process: staging slot -> inbox.

        Returns the credit as soon as the batch leaves the staging
        buffer — *not* when the merge consumes it — so credits bound
        RDMA staging occupancy only and the strict round-robin merge
        can never starve a sender into deadlock.
        """
        try:
            while True:
                slot = yield channel.landed.get()
                sender, exchange_id, payload, nrows = channel.region.get_object(slot)
                channel.region.drop_object(slot)
                yield from channel.receiver.cpu.compute(
                    EXCHANGE_BATCH_CPU_US + nrows * PER_ROW_DESERIALIZE_CPU_US
                )
                self.inbox(exchange_id, dst, sender).put(payload)
                # Credit-return control message rides the reverse path.
                yield channel.receiver.nic.send_control(channel.sender.nic)
                channel.credits.put(slot)
        except (RdmaError, NetworkDown, Interrupt) as exc:
            channel.broken = str(exc) or type(exc).__name__
            for (exchange_id, receiver, sender), box in self._inboxes.items():
                if receiver == dst and sender == src:
                    box.put(_POISON)

    def receive_rows(self, ctx: ExecContext, exchange_id: str) -> ProcessGenerator:
        """Strict round-robin merge over all senders; returns the rows.

        One batch per still-active sender per rotation, in sender-index
        order.  The order is a pure function of what each sender sent —
        never of arrival timing — which is what the determinism tests
        pin down.
        """
        receiver = ctx.fragment_index
        active = list(range(ctx.fragments))
        rows: list = []
        while active:
            finished = []
            for sender in active:
                batch = yield self.inbox(exchange_id, receiver, sender).get()
                if batch is _POISON:
                    raise ExchangeError(
                        f"exchange {exchange_id}: channel from fragment"
                        f" {sender} broke mid-stream"
                    )
                if batch is None:
                    finished.append(sender)
                else:
                    rows.extend(batch)
            for sender in finished:
                active.remove(sender)
        return rows

    def exchange_object(
        self, ctx: ExecContext, exchange_id: str, obj: Any, nbytes: int
    ) -> ProcessGenerator:
        """All-to-all exchange of one opaque object per fragment.

        Used for Bloom-filter shipping: every fragment contributes its
        object and receives everyone's, collected in fragment order.
        Sends never block (one batch per channel ≤ credits), so the
        send-all-then-receive-all pattern is deadlock-free.
        """
        for dest in range(ctx.fragments):
            payload = [obj]
            yield from self.send(
                ctx, exchange_id, dest, payload,
                nbytes if dest != ctx.fragment_index else 0,
            )
        collected = []
        for sender in range(ctx.fragments):
            batch = yield self.inbox(exchange_id, ctx.fragment_index, sender).get()
            if batch is _POISON:
                raise ExchangeError(
                    f"exchange {exchange_id}: channel from fragment"
                    f" {sender} broke mid-broadcast"
                )
            collected.append(batch[0])
        return collected


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _send_partitions(
    runtime: ExchangeRuntime,
    exchange_id: str,
    ctx: ExecContext,
    parts: list[list],
    per_batch: int,
    row_bytes: int,
) -> ProcessGenerator:
    """Stream every partition to its destination, interleaving
    destinations round-robin so no receiver is starved, ending each
    stream with an EOS batch."""
    offsets = [0] * len(parts)
    pending = list(range(len(parts)))
    while pending:
        done = []
        for dest in pending:
            chunk = parts[dest][offsets[dest] : offsets[dest] + per_batch]
            if chunk:
                offsets[dest] += len(chunk)
                yield from runtime.send(
                    ctx, exchange_id, dest, chunk, len(chunk) * row_bytes
                )
            if offsets[dest] >= len(parts[dest]):
                yield from runtime.send(ctx, exchange_id, dest, None, EOS_BYTES)
                done.append(dest)
        for dest in done:
            pending.remove(dest)


class ShuffleExchange(Operator):
    """Repartition the child's rows across all fragments.

    The rows' keys are routed a batch at a time by
    ``owners(keys, fragments)`` — a
    :meth:`~repro.dist.partition.PartitionSpec.owners`, the map that also
    places table shards, so rows land on the fragment whose
    co-partitioned build side holds their join partner.
    ``filter_slot`` (a :class:`~repro.dist.semijoin.FilterSlot`) applies
    a Bloom semi-join filter *before* the wire, dropping probe rows
    that cannot join.
    """

    def __init__(
        self,
        child: Operator,
        key: Callable[[tuple], Any],
        runtime: ExchangeRuntime,
        exchange_id: str,
        owners: Callable[[list, int], list],
        filter_slot: Any = None,
        batch_rows: int = 512,
    ):
        self.child = child
        self.key = key
        self.runtime = runtime
        self.exchange_id = exchange_id
        self.owners = owners
        self.filter_slot = filter_slot
        self.batch_rows = batch_rows
        self.row_bytes = child.row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        bloom = self.filter_slot.filter if self.filter_slot is not None else None
        if bloom is not None:
            yield from ctx.cpu.compute(len(rows) * PER_ROW_HASH_PROBE_CPU_US)
            kept = [row for row in rows if self.key(row) in bloom]
            ctx.metrics.bloom_filtered_rows += len(rows) - len(kept)
            rows = kept
        # Route each row to its owning fragment.
        yield from ctx.cpu.compute(len(rows) * PER_ROW_SCAN_CPU_US)
        parts: list[list] = [[] for _ in range(ctx.fragments)]
        keys = list(map(self.key, rows))
        for owner, row in zip(self.owners(keys, ctx.fragments), rows):
            parts[owner].append(row)
        per_batch = max(
            1, min(self.batch_rows, self.runtime.slot_bytes // max(1, self.row_bytes))
        )
        sender = ctx.db.sim.spawn(
            _send_partitions(
                self.runtime, self.exchange_id, ctx, parts, per_batch, self.row_bytes
            )
        )
        merged = yield from self.runtime.receive_rows(ctx, self.exchange_id)
        yield sender  # join: re-raise a failed send
        return merged


class GatherExchange(Operator):
    """Collect every fragment's rows at the root fragment.

    Non-root fragments ship their rows and return ``[]``; the root
    merges all fragments' streams (round-robin, fragment order).
    """

    def __init__(
        self,
        child: Operator,
        runtime: ExchangeRuntime,
        exchange_id: str,
        root: int = 0,
        batch_rows: int = 512,
    ):
        self.child = child
        self.runtime = runtime
        self.exchange_id = exchange_id
        self.root = root
        self.batch_rows = batch_rows
        self.row_bytes = child.row_bytes

    def run(self, ctx: ExecContext) -> ProcessGenerator:
        rows = yield from self.child.run(ctx)
        per_batch = max(
            1, min(self.batch_rows, self.runtime.slot_bytes // max(1, self.row_bytes))
        )
        if ctx.fragment_index != self.root:
            yield from self._send_stream(ctx, rows, per_batch)
            return []
        sender = ctx.db.sim.spawn(self._send_stream(ctx, rows, per_batch))
        merged = yield from self.runtime.receive_rows(ctx, self.exchange_id)
        yield sender
        return merged

    def _send_stream(self, ctx: ExecContext, rows: list, per_batch: int) -> ProcessGenerator:
        for start in range(0, len(rows), per_batch):
            chunk = rows[start : start + per_batch]
            yield from self.runtime.send(
                ctx, self.exchange_id, self.root, chunk,
                len(chunk) * self.row_bytes,
            )
        yield from self.runtime.send(ctx, self.exchange_id, self.root, None, EOS_BYTES)
