"""Transaction lifecycle: commit, rollback/undo, doom, retry loop."""

import pytest

from repro.engine.wal import LogRecordKind
from repro.reliability import ReliabilityPolicy
from repro.txn import (
    DeadlockAbort,
    LockMode,
    TransactionAborted,
    TransactionDoomed,
    TxnRetriesExhausted,
    TxnState,
)


def bump_balance(row):
    new_row = list(row)
    new_row[5] = row[5] + 100.0
    return tuple(new_row)


def read_row(rig, key):
    def body():
        rows = yield from rig.table.clustered.search(key)
        return rows

    return rig.run(body())


class TestCommit:
    def test_update_commits_and_persists(self, txn_rig):
        manager = txn_rig.db.transactions()
        before = read_row(txn_rig, 7)[0]

        def body(txn):
            after = yield from txn.update(txn_rig.table, 7, bump_balance)
            return after

        after = txn_rig.run(manager.run(body))
        assert after[5] == pytest.approx(before[5] + 100.0)
        assert read_row(txn_rig, 7)[0] == after
        assert manager.commits == 1
        assert manager.locks.idle

    def test_wal_records_carry_txn_id_and_outcome(self, txn_rig):
        manager = txn_rig.db.transactions()

        def body(txn):
            yield from txn.update(txn_rig.table, 3, bump_balance)

        txn_rig.run(manager.run(body))
        records = [r for r in txn_rig.db.wal.records if r.txn_id != 0]
        kinds = [r.kind for r in records]
        assert kinds == [LogRecordKind.BEGIN, LogRecordKind.UPDATE, LogRecordKind.COMMIT]
        assert len({r.txn_id for r in records}) == 1

    def test_read_only_transaction_logs_nothing(self, txn_rig):
        manager = txn_rig.db.transactions()
        wal_before = len(txn_rig.db.wal.records)

        def body(txn):
            rows = yield from txn.read(txn_rig.table, 11)
            return rows

        rows = txn_rig.run(manager.run(body))
        assert rows
        # Let any stray flush drain; no record should have been queued.
        txn_rig.sim.run(until=txn_rig.sim.now + 1e5)
        assert len(txn_rig.db.wal.records) == wal_before
        assert manager.commits == 1

    def test_on_commit_deferred_until_commit_point(self, txn_rig):
        manager = txn_rig.db.transactions()
        sideeffects = []

        def body(txn):
            txn.on_commit(lambda: sideeffects.append("fired"))
            yield from txn.read(txn_rig.table, 1)
            assert sideeffects == []

        txn_rig.run(manager.run(body))
        assert sideeffects == ["fired"]


class TestRollback:
    def test_update_rolled_back_restores_before_image(self, txn_rig):
        manager = txn_rig.db.transactions()
        before = read_row(txn_rig, 5)[0]

        def body():
            txn = manager.begin()
            yield from txn.update(txn_rig.table, 5, bump_balance)
            yield from txn.rollback()
            return txn

        txn = txn_rig.run(body())
        assert txn.state is TxnState.ABORTED
        assert read_row(txn_rig, 5)[0] == before
        assert manager.locks.idle

    def test_insert_rolled_back_disappears(self, txn_rig):
        manager = txn_rig.db.transactions()
        new_key = 10_000
        row_count = txn_rig.table.stats.row_count
        new_row = (new_key, "X", "A", 0, "p", 1.0, "B", "c")

        def body():
            txn = manager.begin()
            yield from txn.insert(txn_rig.table, new_row)
            yield from txn.rollback()

        txn_rig.run(body())
        assert read_row(txn_rig, new_key) == []
        assert txn_rig.table.stats.row_count == row_count

    def test_delete_rolled_back_reappears(self, txn_rig):
        manager = txn_rig.db.transactions()
        victim = read_row(txn_rig, 9)[0]

        def body():
            txn = manager.begin()
            yield from txn.delete(txn_rig.table, 9)
            missing = yield from txn_rig.table.clustered.search(9)
            yield from txn.rollback()
            return missing

        missing = txn_rig.run(body())
        assert missing == []
        assert read_row(txn_rig, 9)[0] == victim

    def test_rollback_logs_abort_record(self, txn_rig):
        manager = txn_rig.db.transactions()

        def body():
            txn = manager.begin()
            yield from txn.update(txn_rig.table, 2, bump_balance)
            yield from txn.rollback()
            return txn.txn_id

        txn_id = txn_rig.run(body())
        txn_rig.sim.run(until=txn_rig.sim.now + 1e5)
        assert txn_id in txn_rig.db.wal.aborted_txn_ids()
        assert txn_id not in txn_rig.db.wal.committed_txn_ids()

    def test_version_stamps_restored_on_rollback(self, txn_rig):
        manager = txn_rig.db.transactions()
        item = ("row", txn_rig.table.name, 4)

        def committed(txn):
            yield from txn.update(txn_rig.table, 4, bump_balance)

        txn_rig.run(manager.run(committed))
        stamp = manager._versions[item]

        def aborted():
            txn = manager.begin()
            yield from txn.update(txn_rig.table, 4, bump_balance)
            assert manager._versions[item] == txn.txn_id
            yield from txn.rollback()

        txn_rig.run(aborted())
        assert manager._versions[item] == stamp


class TestDoom:
    def test_manager_subscribes_to_extension_loss(self, txn_rig):
        manager = txn_rig.db.transactions()
        assert manager._on_media_loss in txn_rig.db.pool.extension.loss_listeners

    def test_media_loss_dooms_active_transactions_only(self, txn_rig):
        manager = txn_rig.db.transactions()

        def body():
            txn = manager.begin()
            yield from txn.update(txn_rig.table, 8, bump_balance)
            manager._on_media_loss("mem0", [("page", 1), ("page", 2)])
            with pytest.raises(TransactionDoomed):
                yield from txn.read(txn_rig.table, 9)
            yield from txn.rollback()

        txn_rig.run(body())
        assert manager.dooms == 1
        assert manager.active_count == 0
        assert manager.locks.idle

    def test_empty_loss_dooms_nothing(self, txn_rig):
        manager = txn_rig.db.transactions()

        def body():
            txn = manager.begin()
            yield from txn.read(txn_rig.table, 1)
            manager._on_media_loss("mem0", [])
            yield from txn.read(txn_rig.table, 2)  # must not raise
            yield from txn.commit()

        txn_rig.run(body())
        assert manager.dooms == 0
        assert manager.commits == 1

    def test_doomed_transaction_retried_to_success(self, txn_rig):
        manager = txn_rig.db.transactions()
        attempts = []
        before = read_row(txn_rig, 6)[0]

        def body(txn):
            attempts.append(txn.txn_id)
            yield from txn.update(txn_rig.table, 6, bump_balance)
            if len(attempts) == 1:
                manager._on_media_loss("mem0", [("page", 1)])
                yield from txn.read(txn_rig.table, 7)  # raises TransactionDoomed

        txn_rig.run(manager.run(body))
        assert len(attempts) == 2
        assert attempts[0] != attempts[1]  # fresh id per attempt
        assert manager.doom_aborts == 1
        assert manager.retries == 1
        assert manager.commits == 1
        # Exactly one bump survived: the aborted attempt left no trace.
        assert read_row(txn_rig, 6)[0][5] == pytest.approx(before[5] + 100.0)


class TestRetryLoop:
    def test_retries_exhausted_raises(self, txn_rig):
        policy = ReliabilityPolicy(retry_attempts=2, retry_base_us=10.0)
        manager = txn_rig.db.transactions(policy=policy)

        def body(txn):
            yield from txn.read(txn_rig.table, 1)
            raise DeadlockAbort(txn.txn_id, (txn.txn_id,))

        with pytest.raises(TxnRetriesExhausted):
            txn_rig.run(manager.run(body))
        assert manager.exhausted == 1
        assert manager.commits == 0
        assert manager.locks.idle

    def test_non_abort_exception_rolls_back_and_propagates(self, txn_rig):
        manager = txn_rig.db.transactions()
        before = read_row(txn_rig, 12)[0]

        def body(txn):
            yield from txn.update(txn_rig.table, 12, bump_balance)
            raise RuntimeError("application bug")

        with pytest.raises(RuntimeError, match="application bug"):
            txn_rig.run(manager.run(body))
        assert read_row(txn_rig, 12)[0] == before
        assert manager.retries == 0
        assert manager.locks.idle

    def test_deadlock_between_crossing_updates_resolves(self, txn_rig):
        manager = txn_rig.db.transactions()
        sim = txn_rig.sim

        def crossing(first, second):
            def body(txn):
                yield from txn.update(txn_rig.table, first, bump_balance)
                yield sim.timeout(50)
                yield from txn.update(txn_rig.table, second, bump_balance)

            return manager.run(body)

        processes = [
            sim.spawn(crossing(20, 21)),
            sim.spawn(crossing(21, 20)),
        ]
        for process in processes:
            sim.run_until_complete(process)
        assert manager.commits == 2
        assert manager.deadlock_aborts >= 1
        assert manager.retries >= 1
        assert manager.locks.idle
        # Both updates landed exactly twice (once per committed txn).
        for key in (20, 21):
            row = read_row(txn_rig, key)[0]
            assert row[5] == pytest.approx(float(1000 + key % 9000) + 200.0)

    def test_explicit_lock_respected_across_transactions(self, txn_rig):
        manager = txn_rig.db.transactions()
        sim = txn_rig.sim
        order = []

        def holder(txn):
            yield from txn.lock(("district", 1), LockMode.EXCLUSIVE)
            order.append("holder")
            yield sim.timeout(25)

        def waiter(txn):
            yield sim.timeout(1)
            yield from txn.lock(("district", 1), LockMode.EXCLUSIVE)
            order.append("waiter")

        processes = [
            sim.spawn(manager.run(holder)),
            sim.spawn(manager.run(waiter)),
        ]
        for process in processes:
            sim.run_until_complete(process)
        assert order == ["holder", "waiter"]


class TestScan:
    def test_scan_locks_returned_rows(self, txn_rig):
        manager = txn_rig.db.transactions()

        def body():
            txn = manager.begin()
            rows = yield from txn.scan(txn_rig.table, 100, 105)
            held = manager.locks.held_by(txn.txn_id)
            yield from txn.commit()
            return rows, held

        rows, held = txn_rig.run(body())
        assert len(rows) == 5
        for row in rows:
            assert held[("row", txn_rig.table.name, row[0])] is LockMode.SHARED

    def test_scan_sees_stable_result_under_concurrent_insert(self, txn_rig):
        manager = txn_rig.db.transactions()
        sim = txn_rig.sim
        new_row = (102_000, "New", "A", 0, "p", 1.0, "B", "c")

        def inserter(txn):
            yield from txn.insert(txn_rig.table, new_row)

        def scanner(txn):
            rows = yield from txn.scan(txn_rig.table, 101_990, 102_010)
            return rows

        txn_rig.run(manager.run(inserter))
        rows = txn_rig.run(manager.run(scanner))
        assert [row[0] for row in rows] == [102_000]

    def test_scan_unstable_after_last_round_aborts_instead_of_returning_unlocked_rows(
        self, txn_rig
    ):
        """Two inserters keep landing keys inside the scanned range, so
        every validation round finds new ones.  The scan must not return
        a key it holds no lock on (an uncommitted insert); it aborts,
        retries, and succeeds once the inserts stop."""
        manager = txn_rig.db.transactions()
        sim = txn_rig.sim
        table = txn_rig.table
        inserters, per_inserter, low = 2, 40, 10_000
        returned_unlocked = []
        attempts = []

        def inserter(offset):
            for i in range(per_inserter):
                row = (low + offset + i * inserters, "New", "A", 0, "p", 1.0, "B", "c")

                def body(txn, row=row):
                    yield from txn.insert(table, row)

                yield from manager.run(body)

        def scanner(txn):
            attempts.append(txn.txn_id)
            rows = yield from txn.scan(table, low, 2 * low)
            held = manager.locks.held_by(txn.txn_id)
            returned_unlocked.extend(
                row[0] for row in rows if txn.row_item(table, row[0]) not in held
            )
            return rows

        writers = [sim.spawn(inserter(offset)) for offset in range(inserters)]
        rows = txn_rig.run(manager.run(scanner))
        for writer in writers:
            sim.run_until_complete(writer)
        assert returned_unlocked == []
        assert len(attempts) > 1  # at least one scan ran out of rounds
        assert manager.aborts == len(attempts) - 1
        assert len(rows) == inserters * per_inserter
        assert manager.locks.idle
