"""Write-ahead log with group commit, checkpoints and REDO recovery.

The transaction log lives on the HDD array in every design (Table 5 —
only data-file caching and spills move to remote memory), which is why
update throughput in Figures 7/8 improves with spindle count: commits
are bounded by sequential log writes.

REDO recovery is what rebuilds semantic-cache structures after a remote
node failure (Appendix B.4, Figure 26): replay the tail of the log from
the last checkpoint and re-apply every change whose LSN is newer than
the recovered page image.

Transactional records (``txn_id != 0``) follow the usual protocol:
``BEGIN`` opens a transaction, data records carry its id, and exactly
one ``COMMIT`` or ``ABORT`` closes it.  REDO replays a transactional
record only when its transaction has a *durable* COMMIT — records of
in-flight or aborted transactions are skipped (their in-memory effects
were never promised, or were already undone before the abort record).
``txn_id == 0`` marks legacy single-statement autocommit, where each
record is made durable before the statement proceeds and is therefore
replayed unconditionally.

Durability is strictly in LSN order: group-commit batches may have
several flushes in flight (``OUTSTANDING_FLUSHES``), but a batch only
*acknowledges* its commits — and appends to the durable record image —
after every earlier batch has acknowledged.  Without that ordering a
later batch landing on a fast spindle could report commits durable
while an earlier-LSN batch is still in the air, and a crash would tear
a hole in the log.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..cluster import Server
from ..sim.kernel import Event, ProcessGenerator
from ..storage import KB, BlockDevice, IoOp

__all__ = ["LogRecordKind", "LogRecord", "WriteAheadLog", "redo_replay"]

#: On-disk size of one log record (header + row image), bytes.
LOG_RECORD_BYTES = 128
#: Max records bundled into one group-commit flush.
GROUP_COMMIT_BATCH = 64
#: Concurrent outstanding log flushes (SQL Server allows several).
OUTSTANDING_FLUSHES = 8
#: CPU to format/apply one record.
RECORD_CPU_US = 0.5


class LogRecordKind(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    CHECKPOINT = "checkpoint"


#: REDO streams the log tail from disk in reads of this size.
REDO_READ_CHUNK_BYTES = 512 * KB
#: Kinds that change data and are therefore candidates for REDO.
REDO_KINDS = (LogRecordKind.INSERT, LogRecordKind.UPDATE, LogRecordKind.DELETE)


@dataclass
class LogRecord:
    lsn: int
    kind: LogRecordKind
    table: str = ""
    index: str = ""
    key: Any = None
    #: Row image (after-image for REDO).
    row: Any = None
    txn_id: int = 0
    payload_bytes: int = LOG_RECORD_BYTES


class WriteAheadLog:
    """Append-only log on a block device with group commit."""

    def __init__(self, server: Server, device: BlockDevice):
        self.server = server
        self.device = device
        self.sim = server.sim
        self._next_lsn = 1
        self._tail_offset = 0
        #: Durable record history (the log image, used by recovery).
        self.records: list[LogRecord] = []
        self.checkpoint_lsn = 0
        self._pending: list[tuple[LogRecord, Optional[Event]]] = []
        self._flush_slots = self.sim.resource(capacity=OUTSTANDING_FLUSHES, name="wal.flush")
        self._signal = self.sim.store(name="wal.signal")
        #: Tail of the in-order acknowledgement chain: the ``done`` event
        #: of the most recently dispatched batch (None before the first).
        self._ack_chain: Optional[Event] = None
        self.flushes = 0
        self.sim.spawn(self._flusher(), name="wal.flusher")

    def next_lsn(self) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        return lsn

    # -- append path -------------------------------------------------------

    def append(self, record: LogRecord) -> ProcessGenerator:
        """Append and wait until the record is durable (group commit)."""
        yield from self.server.cpu.compute(RECORD_CPU_US)
        durable = self.sim.event()
        self._pending.append((record, durable))
        self._signal.put(None)
        yield durable
        return record.lsn

    def append_nowait(self, record: LogRecord) -> LogRecord:
        """Enqueue a record for the next group-commit flush, no waiting.

        Used for intra-transaction records (BEGIN, data records): only
        the COMMIT needs to be awaited, and because batches acknowledge
        in LSN order, a durable COMMIT implies every earlier record of
        the transaction is durable too.
        """
        self._pending.append((record, None))  # nobody waits: no event to succeed
        self._signal.put(None)
        return record

    def log_update(
        self, table: str, key: Any, row: Any, kind: LogRecordKind = LogRecordKind.UPDATE,
        index: str = "", txn_id: int = 0,
    ) -> ProcessGenerator:
        record = LogRecord(
            lsn=self.next_lsn(), kind=kind, table=table, index=index,
            key=key, row=row, txn_id=txn_id,
        )
        yield from self.append(record)
        return record

    def _flusher(self) -> ProcessGenerator:
        while True:
            yield self._signal.get()
            if not self._pending:
                continue
            batch, self._pending = (
                self._pending[:GROUP_COMMIT_BATCH],
                self._pending[GROUP_COMMIT_BATCH:],
            )
            yield self._flush_slots.request()
            previous, done = self._ack_chain, self.sim.event()
            self._ack_chain = done
            self.sim.spawn(
                self._flush_batch(batch, previous, done), name="wal.flush_batch"
            )
            # Re-arm if more work queued behind the batch limit.
            if self._pending:
                self._signal.put(None)

    def _flush_batch(
        self,
        batch: list[tuple[LogRecord, Optional[Event]]],
        previous: Optional[Event],
        done: Event,
    ) -> ProcessGenerator:
        size = max(4 * KB, sum(record.payload_bytes for record, _e in batch))
        offset = self._tail_offset
        self._tail_offset += size
        try:
            try:
                yield from self.device.io(IoOp.WRITE, offset, size)
            finally:
                self._flush_slots.release()
            # In-order completion: even if this batch's write finished
            # first, earlier-LSN batches must acknowledge before us.
            if previous is not None and not previous.processed:
                yield previous
            for record, durable in batch:
                self.records.append(record)
                if durable is not None:
                    durable.succeed(record.lsn)
            self.flushes += 1
        finally:
            # Unblock successors even on a failed write, or the chain
            # (and every later committer) would stall forever.
            if not done.triggered:
                done.succeed()

    # -- checkpointing / recovery ---------------------------------------------

    def checkpoint(self) -> ProcessGenerator:
        """Record a checkpoint; REDO starts from here."""
        record = LogRecord(lsn=self.next_lsn(), kind=LogRecordKind.CHECKPOINT)
        yield from self.append(record)
        self.checkpoint_lsn = record.lsn
        return record.lsn

    def records_since(self, lsn: int) -> list[LogRecord]:
        return [record for record in self.records if record.lsn > lsn]

    def committed_txn_ids(self) -> set[int]:
        """Transactions with a durable COMMIT record (excluding txn 0)."""
        return {
            record.txn_id
            for record in self.records
            if record.kind is LogRecordKind.COMMIT and record.txn_id != 0
        }

    def aborted_txn_ids(self) -> set[int]:
        """Transactions with a durable ABORT record."""
        return {
            record.txn_id
            for record in self.records
            if record.kind is LogRecordKind.ABORT and record.txn_id != 0
        }

    @property
    def durable_bytes(self) -> int:
        return self._tail_offset


def redo_replay(
    server: Server,
    log: WriteAheadLog,
    apply_fn: Callable[[LogRecord], Optional[ProcessGenerator]],
    from_lsn: Optional[int] = None,
    committed_only: bool = True,
) -> ProcessGenerator:
    """REDO pass: stream the log tail from disk and re-apply records.

    ``apply_fn`` is called per REDO-able record; it may return a
    generator (e.g. writes into remote memory) which is awaited.
    Returns the number of records applied.

    With ``committed_only`` (the default), transactional records
    (``txn_id != 0``) are replayed only when the *whole durable log*
    contains a COMMIT for their transaction and no ABORT — replaying a
    record of a transaction that never committed would resurrect data
    the system never promised.  Legacy autocommit records
    (``txn_id == 0``) are durable-before-apply by construction and
    replay unconditionally.
    """
    start_lsn = log.checkpoint_lsn if from_lsn is None else from_lsn
    tail = log.records_since(start_lsn)
    # Sequentially read the log tail from the log device.
    bytes_to_read = sum(record.payload_bytes for record in tail)
    offset = 0
    while offset < bytes_to_read:
        chunk = min(REDO_READ_CHUNK_BYTES, bytes_to_read - offset)
        yield from log.device.io(IoOp.READ, offset, chunk)
        offset += chunk
    if committed_only:
        # Commit/abort lookup spans the full durable log, not just the
        # tail: a transaction may straddle the checkpoint.
        committed = log.committed_txn_ids()
        aborted = log.aborted_txn_ids()
    applied = 0
    for record in tail:
        if record.kind not in REDO_KINDS:
            continue
        if committed_only and record.txn_id != 0 and (
            record.txn_id not in committed or record.txn_id in aborted
        ):
            continue
        yield from server.cpu.compute(RECORD_CPU_US)
        result = apply_fn(record)
        if result is not None:
            yield from result
        applied += 1
    return applied
