"""The lightweight in-memory file API over brokered remote memory.

This is Table 2 of the paper — the abstraction the whole system rests
on.  A *remote file* is a span of leased memory regions, possibly on
several memory servers.  Operations:

=============  =========================================================
Create         obtain leases on MRs covering the file size
Open           connect queue pairs to every provider server
Read / Write   translate file offset -> (MR, offset); RDMA read/write
               through a pre-registered staging buffer
Close          disconnect from the providers
Delete         relinquish the leases
=============  =========================================================

A file holds *extents*: a write parks one object — a page image, a
serialized batch of pages, a spill extent — at an offset, charged as
``size`` bytes on the wire, and a read of that offset returns it.  An
extent lives in one memory region.  The timing-only ``*_nodata`` calls
move no object and may span regions (I/O micro-benchmarks).

Reads and writes can be waited on synchronously (spin — the paper's
Custom design), asynchronously (yield + context switch — what stock
engines do with any I/O), or adaptively (spin briefly, then fall back
to async — the future-work policy of Section 4.1.3, implemented here as
an extension).

Failure semantics are *best effort*: if a lease expires, is revoked, or
the provider dies, accesses raise :class:`RemoteMemoryUnavailable` and
the caller (e.g. the buffer pool) falls back to disk.  Correctness is
never affected (Section 4.1.5).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Any, Iterable

from ..broker import BrokerUnavailable, Lease, MemoryBroker
from ..cluster import Server
from ..net.rdma import OVERTOOK, QueuePair
from ..reliability import DeadlineExceeded, ReliabilityLayer
from ..sim import ABORTED, Cpu, Interrupt, LatencyRecorder
from ..sim.kernel import Event, ProcessGenerator
from ..telemetry.tracer import NOOP_SPAN as _NOOP_SPAN
from .staging import StagingPool

__all__ = [
    "AccessPolicy",
    "RemoteFileError",
    "RemoteMemoryUnavailable",
    "TornWrite",
    "RemoteFile",
    "RemoteMemoryFilesystem",
]


class RemoteFileError(RuntimeError):
    pass


class RemoteMemoryUnavailable(RemoteFileError):
    """The backing lease/provider is gone; caller should fall back."""


class TornWrite(RemoteMemoryUnavailable):
    """A timing-only write spanning regions failed after earlier
    segments were written; carries the written prefix."""

    def __init__(self, message: str, offset: int, written: int, intended: int):
        super().__init__(message)
        self.offset = offset
        self.written = written
        self.intended = intended

    @property
    def written_range(self) -> tuple[int, int]:
        """Byte range ``[start, end)`` known to have been written."""
        return (self.offset, self.offset + self.written)


class AccessPolicy(enum.Enum):
    #: Spin on the core until the RDMA completion arrives (Custom).
    SYNC = "sync"
    #: Treat the transfer as an asynchronous I/O: yield, then pay the
    #: context switch and re-scheduling penalty on completion.
    ASYNC = "async"
    #: Spin up to a threshold, then fall back to async (future work).
    ADAPTIVE = "adaptive"


#: Spin budget for the adaptive policy before yielding the core.
ADAPTIVE_SPIN_US = 25.0

class RemoteFile:
    """A file materialized over leased remote memory regions."""

    def __init__(
        self,
        name: str,
        owner: Server,
        leases: list[Lease],
        staging: StagingPool,
        policy: AccessPolicy = AccessPolicy.SYNC,
        reliability: ReliabilityLayer | None = None,
    ):
        if not leases:
            raise RemoteFileError("a remote file needs at least one lease")
        self.name = name
        self.owner = owner
        self.leases = leases
        self.staging = staging
        self.policy = policy
        #: Optional policy layer: deadlines, seeded retries, breaker
        #: feed and per-provider admission on every transfer.
        self.reliability = reliability
        self.size = sum(lease.region.size for lease in leases)
        self._offsets: list[int] = []
        cursor = 0
        for lease in leases:
            self._offsets.append(cursor)
            cursor += lease.region.size
        self._qps: dict[str, Any] = {}
        #: Fire-and-forget writes still on their way: (region, offset) ->
        #: transfer.  A reliable connection orders a read after the
        #: writes posted before it; here a read can overtake a write
        #: queued on a busy NIC and return what the extent held before
        #: (``OVERTOOK``), so it is repeated once the write has landed.
        self._landing: dict[tuple, Any] = {}
        self.is_open = False
        self.reads = 0
        self.writes = 0
        self._read_name = f"{name}.rdma_read"  # process names: built once, not per I/O
        self._write_name = f"{name}.rdma_write"
        #: Pure transfer latency of reads (RDMA completion time), as a
        #: hardware/issuing-scheduler view: excludes any wait for a core
        #: in the simulation's scheduling model.
        self.io_latency = LatencyRecorder(f"{name}.io")

    # -- lifecycle (Table 2) ----------------------------------------------

    def open(self) -> ProcessGenerator:
        """Connect an RDMA flow to every provider server."""
        for lease in self.leases:
            provider = lease.region.server
            if provider.name not in self._qps:
                # Connection setup: one control round trip per provider.
                yield self.owner.nic.send_control(provider.nic)
                self._qps[provider.name] = QueuePair(
                    self.owner, provider, read_latency=self.io_latency
                )
        self.is_open = True
        return self

    def close(self) -> ProcessGenerator:
        for qp in self._qps.values():
            qp.disconnect()
        self._qps.clear()
        self.is_open = False
        yield self.owner.sim.timeout(1.0)

    @property
    def providers(self) -> list[str]:
        return sorted({lease.provider for lease in self.leases})

    def provider_of(self, offset: int) -> str:
        """Name of the memory server backing the byte at ``offset``."""
        lease, _mr_offset, _length = self._locate(offset, 1)[0]
        return lease.provider

    # -- offset translation -------------------------------------------------

    def _locate(self, offset: int, size: int) -> list[tuple[Lease, int, int]]:
        """Split [offset, offset+size) into (lease, mr_offset, length)."""
        if offset < 0 or size < 0 or offset + size > self.size:
            raise RemoteFileError(
                f"{self.name}: range [{offset}, {offset + size}) outside file of {self.size}"
            )
        segments = []
        remaining = size
        cursor = offset
        # The lease containing `cursor` (regions are uniform in practice,
        # but mixed sizes are supported).
        index = bisect_right(self._offsets, cursor) - 1
        while remaining > 0:
            lease = self.leases[index]
            mr_offset = cursor - self._offsets[index]
            length = min(remaining, lease.region.size - mr_offset)
            segments.append((lease, mr_offset, length))
            cursor += length
            remaining -= length
            index += 1
        return segments

    def _check(self, lease: Lease) -> None:
        if not self.is_open:
            raise RemoteFileError(f"{self.name}: file is not open")
        if not lease.is_valid(self.owner.sim.now):
            raise RemoteMemoryUnavailable(
                f"{self.name}: lease {lease.lease_id} on {lease.provider} is {lease.state.value}"
            )
        if not lease.region.server.alive:
            raise RemoteMemoryUnavailable(f"{self.name}: provider {lease.provider} is down")
        qp = self._qps.get(lease.provider)
        if qp is None or not qp.connected:
            raise RemoteMemoryUnavailable(f"{self.name}: no connection to {lease.provider}")

    # -- waiting policies ----------------------------------------------------

    def _wait(self, cpu: Cpu, transfer: Event, background: bool = False) -> ProcessGenerator:
        if background:
            # Read-ahead / write-behind I/O: never spin a core for it.
            return (yield from cpu.async_wait(transfer))
        if self.policy is AccessPolicy.SYNC:
            return (yield from cpu.sync_wait(transfer))
        if self.policy is AccessPolicy.ASYNC:
            return (yield from cpu.async_wait(transfer))
        return (yield from cpu.adaptive_wait(transfer, ADAPTIVE_SPIN_US))

    # -- data path -------------------------------------------------------------

    def _extent(self, offset: int, size: int) -> tuple[Lease, int, int]:
        segments = self._locate(offset, size)
        if len(segments) != 1:
            raise RemoteFileError("object extents must not span memory regions")
        return segments[0]

    def read(self, offset: int, size: int, background: bool = False) -> ProcessGenerator:
        """Read the extent at ``offset``; returns the object written there.

        An extent that holds no object (never written, or emptied when
        its lease ended) raises :class:`RemoteMemoryUnavailable`.
        ``background=True`` marks read-ahead I/O, which is waited on
        asynchronously even under the SYNC policy (spinning is reserved
        for latency-critical demand reads).
        """
        lease, mr_offset, length = self._extent(offset, size)
        value = yield from self._transfer_read(lease, mr_offset, length, background=background)
        self.reads += 1
        return value

    def write(
        self, offset: int, size: int, obj: Any, background: bool = False,
        on_abort: Any = None,
    ) -> ProcessGenerator:
        """Write ``obj`` as the ``size``-byte extent at ``offset``.

        ``background=True`` is fire-and-forget: the call returns once the
        page is memcpy'd into the staging MR (the source buffer is
        immediately reusable, Section 4.2); the RDMA write completes
        asynchronously and releases the staging slots.  ``on_abort`` is
        invoked if that asynchronous transfer is later aborted (provider
        crash, write-behind deadline): the extent is then unknown and
        the caller must invalidate it.  Timing-only writes go through
        :meth:`write_nodata`; ``obj=None`` raises :class:`RemoteFileError`."""
        if obj is None:
            raise RemoteFileError(f"{self.name}: write needs an object; use write_nodata")
        lease, mr_offset, length = self._extent(offset, size)
        yield from self._transfer_write(
            lease, mr_offset, length, obj=obj, fire_and_forget=background,
            on_abort=on_abort,
        )
        self.writes += 1

    def install(self, offset: int, size: int, obj: Any) -> None:
        """Place ``obj`` at ``offset`` without simulated I/O (priming)."""
        lease, mr_offset, length = self._extent(offset, size)
        lease.region.put_object(mr_offset, length, obj)

    def read_nodata(self, offset: int, size: int) -> ProcessGenerator:
        """Timing-only read: full RDMA/staging path, no data movement.

        Used by I/O micro-benchmarks that sweep address spans far larger
        than host RAM; a span may cross memory regions.
        """
        for lease, mr_offset, length in self._locate(offset, size):
            yield from self._transfer_read(lease, mr_offset, length, nodata=True)
        self.reads += 1

    def write_nodata(self, offset: int, size: int) -> ProcessGenerator:
        """Timing-only write counterpart of :meth:`read_nodata`.

        A span crossing regions is not atomic: if a later segment fails
        after an earlier one was written, :class:`TornWrite` reports the
        written prefix.
        """
        written = 0
        for lease, mr_offset, length in self._locate(offset, size):
            try:
                yield from self._transfer_write(lease, mr_offset, length)
            except (RemoteFileError, DeadlineExceeded) as exc:
                if written > 0:
                    raise TornWrite(
                        f"{self.name}: write of {size} bytes at {offset} torn after "
                        f"{written} bytes (segment on {lease.provider} failed)",
                        offset=offset,
                        written=written,
                        intended=size,
                    ) from exc
                raise
            written += length
        self.writes += 1

    def _retryable(self, lease: Lease) -> bool:
        """May a failed read on ``lease`` be reissued at all?"""
        try:
            self._check(lease)
        except RemoteFileError:
            return False
        return True

    def _transfer_read(
        self,
        lease: Lease,
        mr_offset: int,
        length: int,
        nodata: bool = False,
        background: bool = False,
    ) -> ProcessGenerator:
        layer = self.reliability
        if layer is None:
            return (
                yield from self._transfer_read_once(
                    lease, mr_offset, length, nodata=nodata, background=background
                )
            )
        sim = self.owner.sim
        provider = lease.provider
        attempt = 0
        while True:
            if not layer.breakers.allow(provider):
                raise RemoteMemoryUnavailable(
                    f"{self.name}: provider {provider} is quarantined (circuit open)"
                )
            span = _NOOP_SPAN
            if sim.tracer.enabled:
                span = sim.tracer.span("rfile.attempt", provider=provider, attempt=attempt)
            try:
                with span:  # entered, unlike the hot-path spans: an error is noted on it
                    value = yield from layer.with_deadline(
                        self._transfer_read_once(
                            lease, mr_offset, length, nodata=nodata, background=background
                        ),
                        layer.policy.read_deadline_us,
                        family="read",
                        name=f"{self.name}.read@{provider}",
                    )
            except Interrupt:
                # Abandoned from outside (hedged backup won, caller
                # killed): not a verdict on the provider — but a
                # HALF_OPEN trial slot consumed by allow() above must
                # be returned or the breaker wedges.
                layer.breakers.record_abandoned(provider)
                raise
            except (RemoteMemoryUnavailable, DeadlineExceeded):
                layer.breakers.record_failure(provider)
                attempt += 1
                # One-sided RDMA reads are idempotent: reissue while the
                # retry budget lasts and the lease still looks usable.
                if not layer.retry.allows(attempt) or not self._retryable(lease):
                    raise
                layer.note_retry("read")
                # The backoff sleep is a child span, so retried reads
                # show up as attempt/backoff/attempt chains in traces.
                with sim.tracer.span("reliability.backoff", cat="queue", attempt=attempt):
                    yield sim.timeout(layer.retry.backoff_us(attempt))
            else:
                layer.breakers.record_success(provider)
                return value

    def _transfer_read_once(
        self,
        lease: Lease,
        mr_offset: int,
        length: int,
        nodata: bool = False,
        background: bool = False,
    ) -> ProcessGenerator:
        self._check(lease)
        cpu = self.owner.cpu
        qp = self._qps[lease.provider]
        sim = self.owner.sim
        ticket = None
        if self.reliability is not None:
            ticket = yield from self.reliability.admission.enter(lease.provider)
        slots = None
        transfer = None
        tracer = sim.tracer
        span = (
            tracer.span("rfile.read", provider=lease.provider, size=length)
            if tracer.enabled
            else _NOOP_SPAN
        )
        try:
            slots = self.staging.try_acquire(length)
            if slots is None:
                slots = yield from self.staging.acquire(length)
            # Posted: the provider's port can abort it, the queue pair
            # times it into ``io_latency``.
            landing = self._landing.get((lease.region, mr_offset))
            transfer = qp.read(
                lease.region, mr_offset, length, nodata=nodata, behind=landing,
                spawn=self._read_name,
            )
            value = yield from self._wait(cpu, transfer, background=background)
            if value is ABORTED:
                raise RemoteMemoryUnavailable(
                    f"{self.name}: read aborted, provider {lease.provider} failed"
                )
            # Copy from the staging MR into the destination buffer.
            yield from cpu.compute(self.staging.memcpy_us(length))
        finally:
            span.close()
            if transfer is not None:
                # If the caller is abandoning this read (deadline fired,
                # a hedged backup won, an interrupt), kill the transfer
                # too: a zombie read queued on — or holding — a degraded
                # NIC engine would serialize behind-the-scenes traffic
                # for its whole service time.  No-op once completed.
                transfer.interrupt(cause=f"{self.name}: caller abandoned read")
            if slots is not None:
                self.staging.release(slots)
            if ticket is not None:
                ticket.release()
        if value is OVERTOOK:
            yield landing
            value = yield from self._transfer_read_once(
                lease, mr_offset, length, nodata=nodata, background=background
            )
        return value

    def _transfer_write(
        self,
        lease: Lease,
        mr_offset: int,
        length: int,
        obj: Any = None,
        fire_and_forget: bool = False,
        on_abort: Any = None,
    ) -> ProcessGenerator:
        layer = self.reliability
        if layer is None:
            return (
                yield from self._transfer_write_once(
                    lease, mr_offset, length, obj=obj, fire_and_forget=fire_and_forget,
                    on_abort=on_abort,
                )
            )
        provider = lease.provider
        if not layer.breakers.allow(provider):
            raise RemoteMemoryUnavailable(
                f"{self.name}: provider {provider} is quarantined (circuit open)"
            )
        try:
            value = yield from layer.with_deadline(
                self._transfer_write_once(
                    lease, mr_offset, length, obj=obj, fire_and_forget=fire_and_forget,
                    on_abort=on_abort,
                ),
                layer.policy.write_deadline_us,
                family="write",
                name=f"{self.name}.write@{provider}",
            )
        except Interrupt:
            # Abandoned from outside: no verdict, but give back the
            # HALF_OPEN trial slot allow() consumed (see _transfer_read).
            layer.breakers.record_abandoned(provider)
            raise
        except (RemoteMemoryUnavailable, DeadlineExceeded):
            # Writes are NOT retried — a reissued write is not idempotent
            # once a torn prefix may exist — but the outcome still feeds
            # the provider's breaker.
            layer.breakers.record_failure(provider)
            raise
        if not fire_and_forget:
            # Fire-and-forget outcomes are reported by the completion
            # callback inside _transfer_write_once instead.
            layer.breakers.record_success(provider)
        return value

    def _transfer_write_once(
        self,
        lease: Lease,
        mr_offset: int,
        length: int,
        obj: Any = None,
        fire_and_forget: bool = False,
        on_abort: Any = None,
    ) -> ProcessGenerator:
        self._check(lease)
        cpu = self.owner.cpu
        qp = self._qps[lease.provider]
        sim = self.owner.sim
        layer = self.reliability
        ticket = None
        if layer is not None:
            ticket = yield from layer.admission.enter(lease.provider)
        slots = None
        released = False
        transfer = None
        tracer = sim.tracer
        span = (
            tracer.span("rfile.write", provider=lease.provider, size=length)
            if tracer.enabled
            else _NOOP_SPAN
        )
        try:
            slots = self.staging.try_acquire(length)
            if slots is None:
                slots = yield from self.staging.acquire(length)
            # Copy the page into the staging MR first; the source buffer
            # is reusable immediately after the memcpy (Section 4.2).
            yield from cpu.compute(self.staging.memcpy_us(length))
            transfer = qp.write(lease.region, mr_offset, length, obj, spawn=self._write_name)
            if fire_and_forget:
                # The staging slots stay reserved until the RDMA write
                # completes; a bounded slot pool throttles runaway
                # write-behind naturally.
                released = True
                provider = lease.provider
                extent = (lease.region, mr_offset)
                self._landing[extent] = transfer

                def _complete(_e, slots=slots, ticket=ticket):
                    if self._landing.get(extent) is transfer:
                        del self._landing[extent]
                    self.staging.release(slots)
                    if ticket is not None:
                        ticket.release()
                    aborted = transfer.value is ABORTED
                    if layer is not None:
                        if aborted:
                            layer.breakers.record_failure(provider)
                        else:
                            layer.breakers.record_success(provider)
                    if aborted and on_abort is not None:
                        on_abort()

                transfer.add_callback(_complete)
                if layer is not None and layer.policy.write_deadline_us is not None:
                    # Nobody waits on a write-behind transfer, so the
                    # deadline wrapping the caller never covers it; an
                    # unbounded write parked on a browned-out link would
                    # hold the provider's NIC engine (and its staging
                    # slots) for the whole degraded service time.
                    budget = layer.policy.write_deadline_us

                    def _watchdog(transfer=transfer):
                        index, _ = yield sim.any_of([transfer, sim.timeout(budget)])
                        if index == 1:
                            layer.note_deadline("write")
                            transfer.interrupt(
                                cause=f"{self.name}: write-behind deadline ({budget:g}us)"
                            )

                    sim.spawn(_watchdog(), name=f"{self.name}.write_watchdog")
                return
            value = yield from self._wait(cpu, transfer)
            if value is ABORTED:
                raise RemoteMemoryUnavailable(
                    f"{self.name}: write aborted, provider {lease.provider} failed"
                )
        finally:
            span.close()
            if not released:
                if transfer is not None:
                    # Foreground write abandoned mid-flight (deadline or
                    # interrupt): the caller already treats the remote
                    # bytes as unknown, so finish the abandonment — free
                    # the NIC engine instead of letting a zombie write
                    # hold it.  No-op once completed.
                    transfer.interrupt(cause=f"{self.name}: caller abandoned write")
                if slots is not None:
                    self.staging.release(slots)
                if ticket is not None:
                    ticket.release()


class RemoteMemoryFilesystem:
    """Per-database-server factory for remote files (Create/Delete)."""

    def __init__(
        self,
        owner: Server,
        broker: MemoryBroker,
        staging: StagingPool | None = None,
        policy: AccessPolicy = AccessPolicy.SYNC,
        reliability: ReliabilityLayer | None = None,
    ):
        self.owner = owner
        self.broker = broker
        self.staging = staging if staging is not None else StagingPool(owner)
        self.policy = policy
        #: Shared by every file this filesystem creates: quarantined
        #: providers are avoided at lease placement, renewals get
        #: deadline + retry, transfers get the full policy set.
        self.reliability = reliability
        self.files: dict[str, RemoteFile] = {}
        broker.add_revocation_listener(owner.name, self._on_revocation)

    def initialize(self) -> ProcessGenerator:
        yield from self.staging.initialize()

    def create(
        self,
        name: str,
        size: int,
        providers: Iterable[str] | None = None,
        spread: bool = False,
    ) -> ProcessGenerator:
        """Create a file of ``size`` bytes by leasing MRs (Table 2)."""
        if name in self.files:
            raise RemoteFileError(f"file {name!r} already exists")
        avoid: Iterable[str] = ()
        if self.reliability is not None:
            avoid = self.reliability.quarantined_providers()
            providers = self.reliability.restrict_providers(providers)
        leases = yield from self.broker.acquire(
            self.owner.name, size, providers=providers, spread=spread, avoid=avoid
        )
        file = RemoteFile(
            name, self.owner, leases, self.staging, self.policy,
            reliability=self.reliability,
        )
        self.files[name] = file
        return file

    def delete(self, file: RemoteFile) -> ProcessGenerator:
        """Relinquish every lease backing the file (Table 2)."""
        if file.is_open:
            yield from file.close()
        for lease in file.leases:
            yield from self.broker.release(lease)
        self.files.pop(file.name, None)

    def renewal_daemon(self, file: RemoteFile, period_us: float | None = None):
        """Keep the file's leases alive; exits when any renewal fails.

        A broker that is merely restarting (:class:`BrokerUnavailable`)
        is not a lost lease: the daemon skips the round and retries next
        period, relying on the lease duration to ride out the downtime.
        With a reliability layer attached, each renewal — an idempotent
        RPC — additionally carries the RPC deadline and is retried with
        seeded backoff before the round is abandoned.
        """
        period = period_us if period_us is not None else self.broker.lease_duration_us / 2
        layer = self.reliability
        while file.is_open:
            yield self.owner.sim.timeout(period)
            for lease in file.leases:
                try:
                    if layer is not None:
                        ok = yield from layer.call_idempotent(
                            lambda lease=lease: self.broker.renew(lease),
                            retry_on=(BrokerUnavailable,),
                            deadline_us=layer.policy.rpc_deadline_us,
                            family="rpc",
                            name=f"{file.name}.renew",
                        )
                    else:
                        ok = yield from self.broker.renew(lease)
                except (BrokerUnavailable, DeadlineExceeded):
                    break
                if not ok:
                    return False
        return True

    def _on_revocation(self, lease: Lease) -> None:
        # Nothing to do eagerly: files discover the revocation on next
        # access and surface RemoteMemoryUnavailable to the engine.
        pass
