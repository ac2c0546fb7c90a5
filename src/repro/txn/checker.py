"""Offline conflict-serializability checking over committed history.

While a seeded run executes with ``record_history`` enabled, every
committed transaction contributes:

* its **reads** as ``(item, version)`` pairs, where the version is the
  transaction id of the writer whose value was observed (0 = initial
  database load), and
* its **writes** as ``(item, after_image)`` pairs, appended to the
  per-item committed version chain in commit order.

Items are row-granular (``("row", table, key)``), matching the lock
manager's default granularity.  After the run,
:func:`check_serializable` rebuilds the conflict graph — write-read,
write-write and read-write (anti-dependency) edges between committed
transactions — and demands it be acyclic.  Reads of versions that never
committed are flagged as dirty reads.  With ``final_rows`` (built by
:func:`committed_row_images` from an *untimed* walk of the real B-tree
leaves), the last committed after-image of every item must equal the
actual row on storage: aborted work must have left no trace and
committed work must have survived — the "zero committed-data loss on
real row data" criterion of the fault scenarios.

Scope: this is *conflict* serializability at item granularity.  Range
predicates are validated by lock-and-rescan in
:meth:`~repro.txn.Transaction.scan`, but phantom inserts are not
modelled as conflicts (no next-key locking), matching classic
row-locking engines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import Database

__all__ = [
    "CheckResult",
    "CommittedTxn",
    "TxnHistory",
    "check_serializable",
    "committed_row_images",
]


@dataclass
class CommittedTxn:
    """One committed transaction's reads and writes, in commit order."""

    txn_id: int
    commit_seq: int
    reads: list[tuple[Hashable, int]] = field(default_factory=list)
    writes: list[tuple[Hashable, Any]] = field(default_factory=list)


class TxnHistory:
    """Committed-transaction log plus per-item version chains."""

    def __init__(self) -> None:
        self.committed: list[CommittedTxn] = []
        #: item -> [(writer_txn_id, after_image)] in commit order.
        self.item_chain: dict[Hashable, list[tuple[int, Any]]] = {}

    def install(
        self,
        txn_id: int,
        reads: Iterable[tuple[Hashable, int]],
        writes: Iterable[tuple[Hashable, Any]],
    ) -> int:
        """Record a commit; returns its sequence number."""
        seq = len(self.committed)
        txn = CommittedTxn(txn_id, seq, list(reads), list(writes))
        self.committed.append(txn)
        for item, after in txn.writes:
            self.item_chain.setdefault(item, []).append((txn_id, after))
        return seq


@dataclass
class CheckResult:
    ok: bool
    violations: list[str]
    txns: int
    items: int
    edges: int


def _find_cycle(edges: dict[int, set[int]]) -> Optional[list[int]]:
    """Deterministic iterative DFS; returns one cycle or None."""
    done: set[int] = set()
    for root in sorted(edges):
        if root in done:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(sorted(edges.get(root, ())))]
        while stack:
            advanced = False
            for node in stack[-1]:
                if node in on_path:
                    return path[path.index(node):]
                if node in done:
                    continue
                path.append(node)
                on_path.add(node)
                stack.append(iter(sorted(edges.get(node, ()))))
                advanced = True
                break
            if not advanced:
                stack.pop()
                finished = path.pop()
                on_path.discard(finished)
                done.add(finished)
    return None


def check_serializable(
    history: TxnHistory, final_rows: Optional[dict[Hashable, Any]] = None
) -> CheckResult:
    """Verify conflict serializability (and optionally the final state)."""
    violations: list[str] = []
    committed_ids = {txn.txn_id for txn in history.committed}
    chains = history.item_chain
    edges: dict[int, set[int]] = {txn.txn_id: set() for txn in history.committed}

    # ww edges: consecutive writers of the same item.
    for chain in chains.values():
        for (earlier, _a), (later, _b) in zip(chain, chain[1:]):
            if earlier != later:
                edges[earlier].add(later)

    # wr and rw edges from each committed read.
    for txn in history.committed:
        for item, version in txn.reads:
            if version == txn.txn_id:
                continue  # read-your-own-write
            chain = chains.get(item, [])
            if version == 0:
                # Initial-load read: rw edge to the first committed
                # writer (the read observed the pre-write version, so it
                # must serialize before every writer).
                first = next(
                    (writer for writer, _v in chain if writer != txn.txn_id), None
                )
                if first is not None:
                    edges[txn.txn_id].add(first)
                continue
            positions = [i for i, (writer, _v) in enumerate(chain) if writer == version]
            if version not in committed_ids or not positions:
                violations.append(
                    f"txn {txn.txn_id} read version {version} of {item!r}, "
                    "which never committed (dirty read)"
                )
                continue
            edges[version].add(txn.txn_id)  # wr
            after = next(
                (writer for writer, _v in chain[positions[-1] + 1:]), None
            )
            if after is not None and after != txn.txn_id:
                edges[txn.txn_id].add(after)  # rw anti-dependency

    cycle = _find_cycle(edges)
    if cycle is not None:
        violations.append(f"conflict cycle among committed txns: {cycle}")

    if final_rows is not None:
        for item in sorted(chains, key=repr):
            writer, expected = chains[item][-1]
            actual = final_rows.get(item)
            if expected is None:
                if actual is not None:
                    violations.append(
                        f"{item!r}: deleted by txn {writer} but still present: {actual!r}"
                    )
            elif actual != expected:
                violations.append(
                    f"{item!r}: committed image from txn {writer} lost "
                    f"(expected {expected!r}, found {actual!r})"
                )

    return CheckResult(
        ok=not violations,
        violations=violations,
        txns=len(history.committed),
        items=len(chains),
        edges=sum(len(out) for out in edges.values()),
    )


def committed_row_images(
    db: "Database", tables: Iterable[Any]
) -> dict[Hashable, Any]:
    """Actual rows on real pages, keyed like lock/history items.

    Untimed (no simulated I/O), so it can run after the simulation
    finished.  The newest image of each page is whichever is fresher:
    the resident buffer-pool frame (dirty frames have not reached the
    store yet) or the store's authoritative snapshot.  Assumes unique
    keys per table — true for every workload schema in this repo.
    """
    from ..engine.page import PageKind

    images: dict[Hashable, Any] = {}
    for table in tables:
        key_of = table.schema.key_of
        tree = table.clustered
        store = tree.store
        resident = {
            page.page_no: page
            for page in db.pool.cached_pages()
            if page.file_id == store.file_id
        }

        def newest(page_no: int):
            page = resident.get(page_no)
            return page if page is not None else store.peek(page_no)

        page = newest(tree.root_page_no)
        while page.kind is PageKind.BTREE_INTERNAL:
            page = newest(page.meta["children"][0])
        while page is not None:
            for row in page.rows:
                images[("row", table.name, key_of(row))] = row
            next_no = page.meta.get("next")
            page = newest(next_no) if next_no is not None else None
    return images
