"""Transactions: strict 2PL + undo + WAL + seeded abort/retry.

A :class:`Transaction` brackets reads and writes of one database under
strict two-phase locking (all locks held to commit/abort), keeps
before-images for rollback, and logs through the write-ahead log with
its transaction id:

* lazily a ``BEGIN`` record before the first data record,
* one ``append_nowait`` data record per write — only the ``COMMIT``
  waits for durability, which is sufficient because group-commit
  batches acknowledge strictly in LSN order,
* an ``ABORT`` record plus reverse-order before-image restore on
  rollback.

:meth:`TransactionManager.run` is the retry loop: aborts (deadlock
victims, fault-doomed transactions) roll back, wait a seeded
exponential backoff (:class:`~repro.reliability.RetrySchedule` — the
same policy machinery the remote-read path uses) and re-run the body
under a **fresh transaction id**, so every id has at most one outcome
record in the log and recovery's commit-filtering stays unambiguous.

Fault coupling: the manager subscribes to the buffer-pool extension's
``loss_listeners``.  When a provider crash or lease revocation sweeps
pages out of remote memory mid-flight, every active transaction is
*doomed* — conservatively, since cheap row-level provenance does not
exist — and raises :class:`~repro.txn.errors.TransactionDoomed` at its
next safe point (operation entry or commit entry); each doom is logged
as a ``txn.doomed`` event on the simulator.  Once the COMMIT
record's flush has started the transaction commits regardless: the log
lives on local disk, which remote faults cannot touch.  Plain lease
expiry (renewal storms) never fires the listener — leases are renewed
or re-acquired under the data, so transactions *survive* lease expiry
mid-flight; only actual media loss dooms them.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

import numpy as np

from ..engine.errors import EngineError
from ..engine.wal import RECORD_CPU_US, LogRecord, LogRecordKind
from ..reliability.policy import ReliabilityPolicy
from ..reliability.retry import RetrySchedule
from ..sim.kernel import ProcessGenerator
from .checker import TxnHistory
from .errors import DeadlockAbort, TransactionAborted, TransactionDoomed, TxnRetriesExhausted
from .locks import LockManager, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.catalog import Table
    from ..engine.database import Database

__all__ = ["Transaction", "TransactionManager", "TxnState", "DEFAULT_TXN_POLICY"]

#: Backoff tuning for transaction retry: first retry almost immediate,
#: doubling with jitter, capped low — OLTP retries should not dawdle.
DEFAULT_TXN_POLICY = ReliabilityPolicy(
    retry_attempts=8,
    retry_base_us=100.0,
    retry_multiplier=2.0,
    retry_max_us=5_000.0,
    retry_jitter=0.5,
)

#: Cap on lock-and-rescan rounds for range reads (phantom chasing).
SCAN_VALIDATE_ROUNDS = 8


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work under strict 2PL.  Use via ``manager.run``."""

    def __init__(self, manager: "TransactionManager", txn_id: int, name: str = ""):
        self.manager = manager
        self.db = manager.db
        self.sim = manager.sim
        self.txn_id = txn_id
        self.name = name
        self.state = TxnState.ACTIVE
        self.doomed_reason: Optional[str] = None
        self._began_logged = False
        self._wrote = False
        #: Reverse-order undo entries: (kind, table, key, before_rows).
        self._undo: list[tuple[str, "Table", Any, Optional[list[tuple]]]] = []
        #: (item, previous_version) stamps to restore on rollback.
        self._undo_versions: list[tuple[Hashable, int]] = []
        self._on_commit: list[Callable[[], None]] = []
        #: (item, observed_version) — only with ``record_history``.
        self.reads: list[tuple[Hashable, int]] = []
        #: (item, after_image) — only with ``record_history``.
        self.writes: list[tuple[Hashable, Any]] = []

    # -- bookkeeping -------------------------------------------------------

    def doom(self, reason: str) -> bool:
        """Mark for abort-at-next-safe-point; True if newly doomed."""
        if self.state is TxnState.ACTIVE and self.doomed_reason is None:
            self.doomed_reason = reason
            return True
        return False

    def _check(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise EngineError(f"txn {self.txn_id} is {self.state.value}, not active")
        if self.doomed_reason is not None:
            raise TransactionDoomed(self.txn_id, self.doomed_reason)

    def on_commit(self, fn: Callable[[], None]) -> None:
        """Defer side-effect-free bookkeeping until the commit point."""
        self._on_commit.append(fn)

    @staticmethod
    def row_item(table: "Table", key: Any) -> Hashable:
        """Canonical lock/history item for one row."""
        return ("row", table.name, key)

    def _record_read(self, item: Hashable) -> None:
        if self.manager.record_history:
            self.reads.append((item, self.manager._versions.get(item, 0)))

    def _record_write(self, item: Hashable, after: Any) -> None:
        versions = self.manager._versions
        self._undo_versions.append((item, versions.get(item, 0)))
        versions[item] = self.txn_id
        if self.manager.record_history:
            self.writes.append((item, after))

    def _log(self, kind: LogRecordKind, table: str = "", key: Any = None,
             row: Any = None) -> ProcessGenerator:
        wal = self.db.wal
        cpu = self.db.server.cpu
        if not self._began_logged:
            self._began_logged = True
            self._wrote = True
            wal.append_nowait(
                LogRecord(lsn=wal.next_lsn(), kind=LogRecordKind.BEGIN, txn_id=self.txn_id)
            )
            yield from cpu.compute(RECORD_CPU_US)
        record = LogRecord(
            lsn=wal.next_lsn(), kind=kind, table=table, key=key, row=row,
            txn_id=self.txn_id,
        )
        wal.append_nowait(record)
        yield from cpu.compute(RECORD_CPU_US)
        return record

    # -- operations --------------------------------------------------------

    def lock(self, resource: Hashable, mode: LockMode = LockMode.EXCLUSIVE) -> ProcessGenerator:
        """Explicitly lock an application-level resource (e.g. a district)."""
        self._check()
        yield from self.manager.locks.acquire(self.txn_id, resource, mode)

    def read(self, table: "Table", key: Any, lock: bool = True) -> ProcessGenerator:
        """Point read; S-locks the row first (strict 2PL) unless opted out."""
        self._check()
        item = self.row_item(table, key)
        if lock:
            yield from self.manager.locks.acquire(self.txn_id, item, LockMode.SHARED)
        rows = yield from table.clustered.search(key)
        self._record_read(item)
        return rows

    def update(
        self, table: "Table", key: Any, mutate: Callable[[tuple], tuple],
        lock: bool = True,
    ) -> ProcessGenerator:
        """X-lock, log the after-image, apply; keeps the before-image.

        ``lock=False`` skips the row lock — only valid when the caller
        already holds a coarser lock covering this row (e.g. TPC-C's
        district-granularity mode).
        """
        self._check()
        item = self.row_item(table, key)
        if lock:
            yield from self.manager.locks.acquire(self.txn_id, item, LockMode.EXCLUSIVE)
        before = yield from table.clustered.search(key)
        if not before:
            raise EngineError(f"txn {self.txn_id}: update of missing key {key!r} in {table.name}")
        afters = [mutate(row) for row in before]
        after = afters[0] if len(afters) == 1 else tuple(afters)
        record = yield from self._log(LogRecordKind.UPDATE, table.name, key, after)
        replacement = iter(afters)
        yield from table.clustered.update_where(key, lambda _row: next(replacement), lsn=record.lsn)
        self._undo.append(("update", table, key, before))
        self._record_write(item, after)
        return after

    def insert(self, table: "Table", row: tuple, lock: bool = True) -> ProcessGenerator:
        """X-lock the new key, log, insert."""
        self._check()
        key = table.key_of(row)
        item = self.row_item(table, key)
        if lock:
            yield from self.manager.locks.acquire(self.txn_id, item, LockMode.EXCLUSIVE)
        record = yield from self._log(LogRecordKind.INSERT, table.name, key, row)
        yield from table.clustered.insert(row, lsn=record.lsn)
        table.stats.row_count += 1
        self._undo.append(("insert", table, key, None))
        self._record_write(item, row)
        return row

    def delete(self, table: "Table", key: Any, lock: bool = True) -> ProcessGenerator:
        """X-lock, log, delete; before-images allow re-insert on abort."""
        self._check()
        item = self.row_item(table, key)
        if lock:
            yield from self.manager.locks.acquire(self.txn_id, item, LockMode.EXCLUSIVE)
        before = yield from table.clustered.search(key)
        record = yield from self._log(LogRecordKind.DELETE, table.name, key, None)
        removed = yield from table.clustered.delete(key, lsn=record.lsn)
        table.stats.row_count -= removed
        self._undo.append(("delete", table, key, before))
        self._record_write(item, None)
        return removed

    def scan(
        self, table: "Table", low: Any, high: Any, limit: Optional[int] = None,
        lock: bool = True,
    ) -> ProcessGenerator:
        """Range read with lock-and-rescan validation.

        Scans, S-locks every returned key in ascending order, then
        rescans; once a pass returns only already-locked keys its rows
        are stable (every key was locked *before* the pass began).
        Block- or range-level locks are deliberately avoided: TPC-C
        order-line keys are globally sequential, so locking blocks
        would serialize every new-order on the rightmost leaf.  If the
        last of :data:`SCAN_VALIDATE_ROUNDS` passes still returns an
        unlocked key, the scan aborts (retryable) rather than return a
        row another transaction may hold X on.
        """
        self._check()
        key_fn = table.clustered.key_fn
        rows = yield from table.clustered.range_scan(low, high, limit)
        if lock:
            locked: set = set()
            for _round in range(SCAN_VALIDATE_ROUNDS):
                pending = sorted({key_fn(row) for row in rows} - locked)
                if not pending:
                    break
                for key in pending:
                    yield from self.manager.locks.acquire(
                        self.txn_id, self.row_item(table, key), LockMode.SHARED
                    )
                    locked.add(key)
                rows = yield from table.clustered.range_scan(low, high, limit)
            else:
                if any(key_fn(row) not in locked for row in rows):
                    raise TransactionAborted(
                        f"txn {self.txn_id}: range scan of {table.name} "
                        f"unstable after {SCAN_VALIDATE_ROUNDS} rounds"
                    )
        for row in rows:
            self._record_read(self.row_item(table, key_fn(row)))
        return rows

    # -- outcome -----------------------------------------------------------

    def commit(self) -> ProcessGenerator:
        """Harden (group commit) and release.  Doom is checked once, at
        entry: after the COMMIT record's flush starts the transaction
        commits regardless — the log device is local."""
        self._check()
        if self._wrote:
            record = LogRecord(
                lsn=self.db.wal.next_lsn(), kind=LogRecordKind.COMMIT, txn_id=self.txn_id
            )
            yield from self.db.wal.append(record)
        self.state = TxnState.COMMITTED
        self.manager._finish_commit(self)

    def rollback(self) -> ProcessGenerator:
        """Log ABORT, restore before-images in reverse, release locks."""
        if self.state is not TxnState.ACTIVE:
            return
        undo_lsn = 0
        if self._wrote:
            record = LogRecord(
                lsn=self.db.wal.next_lsn(), kind=LogRecordKind.ABORT, txn_id=self.txn_id
            )
            self.db.wal.append_nowait(record)
            yield from self.db.server.cpu.compute(RECORD_CPU_US)
            undo_lsn = record.lsn
        for kind, table, key, before in reversed(self._undo):
            if kind == "update":
                replacement = iter(before)
                yield from table.clustered.update_where(
                    key, lambda _row: next(replacement), lsn=undo_lsn
                )
            elif kind == "insert":
                removed = yield from table.clustered.delete(key, lsn=undo_lsn)
                table.stats.row_count -= removed
            else:  # delete
                for row in before or ():
                    yield from table.clustered.insert(row, lsn=undo_lsn)
                table.stats.row_count += len(before or ())
        versions = self.manager._versions
        for item, stamp in reversed(self._undo_versions):
            if stamp == 0:
                versions.pop(item, None)
            else:
                versions[item] = stamp
        self.state = TxnState.ABORTED
        self.manager._finish_abort(self)


class TransactionManager:
    """Per-database transaction service: ids, locks, retry, history.

    Obtain via :meth:`repro.engine.Database.transactions` so every
    session of one database shares the same lock table.
    """

    def __init__(
        self,
        db: "Database",
        policy: Optional[ReliabilityPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        record_history: bool = False,
    ):
        self.db = db
        self.sim = db.sim
        self.locks = LockManager(self.sim)
        self.policy = policy if policy is not None else DEFAULT_TXN_POLICY
        self.rng = rng if rng is not None else np.random.default_rng(0x7C17C1)
        self.schedule = RetrySchedule(self.policy, self.rng)
        self.record_history = record_history
        self.history = TxnHistory()
        #: item -> txn_id of the last writer (0 / absent = initial load).
        self._versions: dict[Hashable, int] = {}
        self._active: dict[int, Transaction] = {}
        self._next_txn_id = 1
        self.begins = 0
        self.commits = 0
        self.aborts = 0
        self.deadlock_aborts = 0
        self.doom_aborts = 0
        #: Distinct doom events delivered to active transactions.
        self.dooms = 0
        self.retries = 0
        self.exhausted = 0
        if db.pool.extension is not None:
            db.pool.extension.loss_listeners.append(self._on_media_loss)

    # -- fault coupling ----------------------------------------------------

    def _on_media_loss(self, provider: Optional[str], lost: list) -> None:
        """Extension pages evaporated: doom every in-flight transaction."""
        if not lost:
            return
        reason = f"provider {provider or '<all>'} lost {len(lost)} extension page(s)"
        for txn in list(self._active.values()):
            if txn.doom(reason):
                self.dooms += 1
                self.sim.log(
                    "txn.doomed", server=self.db.server.name, txn_id=txn.txn_id,
                    provider=provider,
                )

    # -- lifecycle ---------------------------------------------------------

    def begin(self, name: str = "", seniority: Optional[int] = None) -> Transaction:
        """Open a transaction.  ``seniority`` ranks it for deadlock
        victim selection; retries pass their first attempt's id so the
        intent ages instead of staying forever-youngest."""
        txn = Transaction(self, self._next_txn_id, name)
        self._next_txn_id += 1
        self._active[txn.txn_id] = txn
        self.locks.set_seniority(
            txn.txn_id, txn.txn_id if seniority is None else seniority
        )
        self.begins += 1
        return txn

    def _finish_commit(self, txn: Transaction) -> None:
        if self.record_history:
            self.history.install(txn.txn_id, txn.reads, txn.writes)
        for fn in txn._on_commit:
            fn()
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self.commits += 1

    def _finish_abort(self, txn: Transaction) -> None:
        self.locks.release_all(txn.txn_id)
        self._active.pop(txn.txn_id, None)
        self.aborts += 1

    def run(
        self, body: Callable[[Transaction], ProcessGenerator], name: str = ""
    ) -> ProcessGenerator:
        """Run ``body(txn)`` to commit, retrying aborts with backoff.

        Each attempt gets a fresh transaction (fresh id), so the log
        never holds two outcome records for one id, but every attempt
        keeps the first attempt's deadlock seniority so the retried
        intent cannot be re-victimized indefinitely.  Non-abort
        exceptions roll back and propagate.
        """
        attempt = 0
        seniority: Optional[int] = None
        while True:
            txn = self.begin(name, seniority=seniority)
            if seniority is None:
                seniority = txn.txn_id
            try:
                result = yield from body(txn)
                yield from txn.commit()
                return result
            except TransactionAborted as abort:
                if isinstance(abort, DeadlockAbort):
                    self.deadlock_aborts += 1
                elif isinstance(abort, TransactionDoomed):
                    self.doom_aborts += 1
                yield from txn.rollback()
                attempt += 1
                if not self.schedule.allows(attempt):
                    self.exhausted += 1
                    raise TxnRetriesExhausted(attempt, abort) from abort
                self.retries += 1
                backoff = self.schedule.backoff_us(attempt)
                if backoff > 0:
                    yield self.sim.timeout(backoff)
            except BaseException:
                # Cleanup only: roll back, then re-raise whatever it was.
                yield from txn.rollback()
                raise

    # -- reporting ---------------------------------------------------------

    @property
    def active_count(self) -> int:
        return len(self._active)

    def stats(self) -> dict[str, float]:
        """Counter snapshot (exact, virtual-time deterministic)."""
        return {
            "begins": self.begins,
            "commits": self.commits,
            "aborts": self.aborts,
            "deadlock_aborts": self.deadlock_aborts,
            "doom_aborts": self.doom_aborts,
            "dooms": self.dooms,
            "retries": self.retries,
            "exhausted": self.exhausted,
            "deadlocks_detected": self.locks.deadlocks,
            "lock_waits": self.locks.waits,
            "lock_wait_us": round(self.locks.lock_wait_us, 6),
        }
