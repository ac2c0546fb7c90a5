"""TPC-C-like OLTP workload (Appendix B.1, Figures 22/23).

Five transaction types over the classic warehouse schema.  Two mixes:

* **Default** — the standard mix (45 % NewOrder, 43 % Payment, 4 %
  each of the rest).  Its working set is the *recent* orders plus
  NURand-hot stock/items, which fits local memory and keeps shifting —
  the case where remote memory does **not** help (Figure 22, left).
* **Read-mostly** — 90 % StockLevel, which walks historical order lines
  and does uniform stock checks: a working set far larger than local
  memory, where remote memory pays off (Figure 22, right).

Every transaction runs inside a real :class:`~repro.txn.Transaction`
(WAL BEGIN/data/COMMIT records, before-image undo, automatic
abort/retry), under one of two concurrency disciplines:

* ``concurrency="district"`` (default) — writers take a single
  exclusive lock on their district for the whole transaction, readers
  run lock-free.  This reproduces the per-district serialization of
  the paper's latency discussion: no deadlocks, contention scales with
  workers per district.
* ``concurrency="2pl"`` — row-granular strict 2PL: S locks on reads
  (with lock-and-rescan validation for StockLevel's range walk), X
  locks on writes.  NewOrders of districts sharing a warehouse then
  conflict on stock rows in *random item order*, so genuine deadlocks
  arise, are detected by the wait-for graph, and retry with seeded
  backoff.  ``hot_district_fraction`` concentrates traffic on a few
  districts to dial the conflict rate up.

Shared-structure bookkeeping (recent orders, undelivered queues) is
applied via ``on_commit`` hooks, so aborted transactions leave no
trace in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import Column, Database, Schema, Table
from ..sim.kernel import ProcessGenerator
from ..txn import LockMode, Transaction
from .clients import ClientRun, run_clients

__all__ = [
    "TpccScale",
    "TpccConfig",
    "TpccReport",
    "build_tpcc_database",
    "run_tpcc",
    "DEFAULT_MIX",
    "READ_MOSTLY_MIX",
]

WAREHOUSE = Schema(
    columns=(Column("w_id", "int", 8), Column("ytd", "float", 8), Column("pad", "str", 80)),
    key="w_id",
)
DISTRICT = Schema(
    columns=(
        Column("d_key", "int", 8), Column("next_o_id", "int", 8),
        Column("ytd", "float", 8), Column("pad", "str", 80),
    ),
    key="d_key",
)
CUSTOMER = Schema(
    columns=(
        Column("c_key", "int", 8), Column("balance", "float", 8),
        Column("payment_cnt", "int", 8), Column("pad", "str", 220),
    ),
    key="c_key",
)
STOCK = Schema(
    columns=(
        Column("s_key", "int", 8), Column("quantity", "int", 8),
        Column("ytd", "int", 8), Column("pad", "str", 180),
    ),
    key="s_key",
)
ORDERS = Schema(
    columns=(
        Column("o_key", "int", 8), Column("c_key", "int", 8),
        Column("entry_d", "int", 8), Column("carrier", "int", 8),
        Column("pad", "str", 60),
    ),
    key="o_key",
)
ORDER_LINE = Schema(
    columns=(
        Column("ol_key", "int", 8), Column("o_key", "int", 8),
        Column("item", "int", 8), Column("amount", "float", 8),
        Column("pad", "str", 80),
    ),
    key="ol_key",
)

DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 30


@dataclass(frozen=True)
class TpccScale:
    warehouses: int = 20
    items: int = 600
    #: Pre-loaded historical orders per district (order-line history is
    #: the bulk of the database, as at full TPC-C scale).
    history_orders: int = 250

    @property
    def districts(self) -> int:
        return self.warehouses * DISTRICTS_PER_WAREHOUSE

    @property
    def customers(self) -> int:
        return self.districts * CUSTOMERS_PER_DISTRICT

    @property
    def stock_rows(self) -> int:
        return self.warehouses * self.items


#: Transaction mixes: (new_order, payment, order_status, delivery, stock_level).
DEFAULT_MIX = {"new_order": 0.45, "payment": 0.43, "order_status": 0.04,
               "delivery": 0.04, "stock_level": 0.04}
READ_MOSTLY_MIX = {"new_order": 0.04, "payment": 0.04, "order_status": 0.01,
                   "delivery": 0.01, "stock_level": 0.90}

#: NURand-like item skew: this fraction of item picks is drawn from the
#: hot set, the first ``_HOT_ITEM_SHARE`` of the items.
_HOT_ITEM_FRACTION = 0.9
_HOT_ITEM_SHARE = 0.04


@dataclass
class TpccConfig:
    scale: TpccScale = field(default_factory=TpccScale)
    workers: int = 100
    transactions_per_worker: int = 30
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    #: Lock discipline: "district" (coarse, deadlock-free, legacy
    #: contention profile) or "2pl" (row-granular strict 2PL).
    concurrency: str = "district"
    #: Conflict knob: fraction of transactions routed to a hot subset
    #: of districts (0 disables), and the size of that subset.
    hot_district_fraction: float = 0.0
    hot_district_share: float = 0.1
    #: Record read/write history for the serializability checker.
    record_history: bool = False
    seed: int = 0


@dataclass
class TpccReport:
    """Transaction-manager counters over one run (``stats()`` deltas)."""

    commits: int
    aborts: int
    deadlocks: int
    retries: int
    dooms: int
    lock_wait_us: float

    @property
    def abort_rate(self) -> float:
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0


class TpccState:
    """Tables plus the runtime bookkeeping the transactions need."""

    def __init__(self, db: Database, scale: TpccScale):
        self.db = db
        self.scale = scale
        self.warehouse: Table = None  # type: ignore[assignment]
        self.district: Table = None  # type: ignore[assignment]
        self.customer: Table = None  # type: ignore[assignment]
        self.stock: Table = None  # type: ignore[assignment]
        self.orders: Table = None  # type: ignore[assignment]
        self.order_line: Table = None  # type: ignore[assignment]
        self.next_order_id = 0
        self.next_line_id = 0
        #: Oldest undelivered order per district (committed only).
        self.undelivered: dict[int, list[int]] = {}
        #: o_key -> [ol_keys] for status/stock-level walks (committed only).
        self.order_lines_of: dict[int, list[int]] = {}
        self.recent_orders: dict[int, list[int]] = {}


def build_tpcc_database(db: Database, scale: TpccScale = TpccScale(), seed: int = 0) -> TpccState:
    rng = np.random.default_rng(seed)
    state = TpccState(db, scale)
    state.warehouse = db.create_table(
        "warehouse", WAREHOUSE, [(w, 0.0, "w") for w in range(scale.warehouses)]
    )
    state.district = db.create_table(
        "district", DISTRICT,
        [(d, scale.history_orders, 0.0, "d") for d in range(scale.districts)],
    )
    state.customer = db.create_table(
        "customer", CUSTOMER,
        [(c, 100.0, 0, "c") for c in range(scale.customers)],
    )
    state.stock = db.create_table(
        "stock", STOCK,
        [(s, 50 + s % 50, 0, "s") for s in range(scale.stock_rows)],
    )
    orders = []
    lines = []
    for district in range(scale.districts):
        state.recent_orders[district] = []
        state.undelivered[district] = []
        for slot in range(scale.history_orders):
            o_key = state.next_order_id
            state.next_order_id += 1
            customer = district * CUSTOMERS_PER_DISTRICT + int(
                rng.integers(0, CUSTOMERS_PER_DISTRICT)
            )
            orders.append((o_key, customer, slot, 1, "o"))
            ol_keys = []
            for _line in range(int(rng.integers(5, 16))):
                ol_key = state.next_line_id
                state.next_line_id += 1
                lines.append(
                    (ol_key, o_key, int(rng.integers(0, scale.items)),
                     float(rng.integers(100, 10_000)) / 100.0, "l")
                )
                ol_keys.append(ol_key)
            state.order_lines_of[o_key] = ol_keys
            state.recent_orders[district].append(o_key)
            state.recent_orders[district] = state.recent_orders[district][-25:]
    state.orders = db.create_table("orders", ORDERS, orders)
    state.order_line = db.create_table("order_line", ORDER_LINE, lines)
    return state


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

def _pick_item(state: TpccState, rng) -> int:
    """NURand-like skew: most picks come from a small hot set."""
    if rng.random() < _HOT_ITEM_FRACTION:
        return int(rng.integers(0, max(1, int(state.scale.items * _HOT_ITEM_SHARE))))
    return int(rng.integers(0, state.scale.items))


def _row_locks(config: TpccConfig) -> bool:
    return config.concurrency == "2pl"


def new_order(
    state: TpccState, rng, config: TpccConfig, district: int, txn: Transaction
) -> ProcessGenerator:
    row_locks = _row_locks(config)
    if not row_locks:
        yield from txn.lock(("district", district), LockMode.EXCLUSIVE)
    yield from txn.update(
        state.district, district,
        lambda row: (row[0], row[1] + 1, row[2], row[3]), lock=row_locks,
    )
    o_key = state.next_order_id
    state.next_order_id += 1
    customer = district * CUSTOMERS_PER_DISTRICT + int(
        rng.integers(0, CUSTOMERS_PER_DISTRICT)
    )
    yield from txn.insert(state.orders, (o_key, customer, 0, 0, "o"), lock=row_locks)
    warehouse = district // DISTRICTS_PER_WAREHOUSE
    ol_keys = []
    # Stock rows are shared by all districts of the warehouse and are
    # locked in random item order — the deadlock source under 2PL.
    for _line in range(int(rng.integers(5, 16))):
        item = _pick_item(state, rng)
        stock_key = warehouse * state.scale.items + item
        yield from txn.update(
            state.stock, stock_key,
            lambda row: (row[0], max(10, row[1] - 1), row[2] + 1, row[3]),
            lock=row_locks,
        )
        ol_key = state.next_line_id
        state.next_line_id += 1
        yield from txn.insert(state.order_line, (ol_key, o_key, item, 9.99, "l"),
                              lock=row_locks)
        ol_keys.append(ol_key)

    def bookkeep() -> None:
        state.order_lines_of[o_key] = ol_keys
        state.recent_orders[district].append(o_key)
        state.recent_orders[district] = state.recent_orders[district][-25:]
        state.undelivered[district].append(o_key)

    txn.on_commit(bookkeep)


def payment(
    state: TpccState, rng, config: TpccConfig, district: int, txn: Transaction
) -> ProcessGenerator:
    row_locks = _row_locks(config)
    if not row_locks:
        yield from txn.lock(("district", district), LockMode.EXCLUSIVE)
    warehouse = district // DISTRICTS_PER_WAREHOUSE
    yield from txn.update(
        state.warehouse, warehouse,
        lambda row: (row[0], row[1] + 10.0, row[2]), lock=row_locks,
    )
    yield from txn.update(
        state.district, district,
        lambda row: (row[0], row[1], row[2] + 10.0, row[3]), lock=row_locks,
    )
    customer = district * CUSTOMERS_PER_DISTRICT + int(
        rng.integers(0, CUSTOMERS_PER_DISTRICT)
    )
    yield from txn.update(
        state.customer, customer,
        lambda row: (row[0], row[1] - 10.0, row[2] + 1, row[3]), lock=row_locks,
    )


def order_status(
    state: TpccState, rng, config: TpccConfig, district: int, txn: Transaction
) -> ProcessGenerator:
    row_locks = _row_locks(config)
    customer = district * CUSTOMERS_PER_DISTRICT + int(rng.integers(0, CUSTOMERS_PER_DISTRICT))
    yield from txn.read(state.customer, customer, lock=row_locks)
    recent = state.recent_orders.get(district) or [0]
    o_key = recent[-1]
    yield from txn.read(state.orders, o_key, lock=row_locks)
    for ol_key in state.order_lines_of.get(o_key, [])[:5]:
        yield from txn.read(state.order_line, ol_key, lock=row_locks)


def delivery(
    state: TpccState, rng, config: TpccConfig, district: int, txn: Transaction
) -> ProcessGenerator:
    # The district lock (held to commit in both modes) serializes
    # deliveries per district, so peeking the queue head and popping it
    # only on commit cannot double-deliver.
    yield from txn.lock(("district", district), LockMode.EXCLUSIVE)
    queue = state.undelivered.get(district)
    if not queue:
        return
    o_key = queue[0]
    yield from txn.update(
        state.orders, o_key,
        lambda row: (row[0], row[1], row[2], 7, row[4]), lock=_row_locks(config),
    )
    txn.on_commit(lambda: queue.pop(0))


def stock_level(
    state: TpccState, rng, config: TpccConfig, district: int, txn: Transaction
) -> ProcessGenerator:
    """Threshold check over historical order lines + uniform stock reads.

    Walks a window of *old* order lines (the paper: the read-mostly mix
    "also accesses the old data, accessing more database pages") and
    checks the stock rows of the items found — a working set spanning
    the whole stock and order-line history.
    """
    row_locks = _row_locks(config)
    warehouse = district // DISTRICTS_PER_WAREHOUSE
    window = 200
    top = max(1, state.next_line_id - window)
    # Recency-skewed: stock checks concentrate on newer history, so the
    # working set is bounded (~a third of the order-line history) and
    # extension-sized memory covers most of it.
    age = int(rng.exponential(scale=0.12 * state.next_line_id))
    start = max(0, top - 1 - age)
    lines = yield from txn.scan(state.order_line, start, start + window, lock=row_locks)
    items = {line[2] for line in lines[:60]}
    for item in items:
        stock_key = warehouse * state.scale.items + item
        yield from txn.read(state.stock, stock_key, lock=row_locks)


_TRANSACTIONS = {
    "new_order": new_order,
    "payment": payment,
    "order_status": order_status,
    "delivery": delivery,
    "stock_level": stock_level,
}


def run_tpcc(db: Database, state: TpccState, config: TpccConfig) -> tuple[ClientRun, TpccReport]:
    """Closed-loop run: ``workers`` sessions each run their share.

    The transaction types and districts are drawn before any session
    runs; each session has its own RNG for what a transaction picks
    inside.  Every transaction is one op, labelled with its name, and
    goes through ``manager.run``: deadlock victims and fault-doomed
    transactions roll back and retry with seeded backoff, so the run
    counts committed intents and the report the churn behind them.
    """
    manager = db.transactions()
    if config.record_history:
        manager.record_history = True
    rng = np.random.default_rng(config.seed)
    names = list(config.mix)
    weights = np.array([config.mix[name] for name in names], dtype=float)
    weights /= weights.sum()
    total = config.workers * config.transactions_per_worker
    choices = rng.choice(len(names), size=total, p=weights)
    districts = rng.integers(0, state.scale.districts, size=total)
    if config.hot_district_fraction > 0.0:
        hot_count = max(1, int(state.scale.districts * config.hot_district_share))
        hot = rng.random(total) < config.hot_district_fraction
        districts[hot] = rng.integers(0, hot_count, size=int(hot.sum()))

    def op(position: int, worker_rng: np.random.Generator):
        name = names[int(choices[position])]
        district = int(districts[position])
        body = _TRANSACTIONS[name]

        def run() -> ProcessGenerator:
            yield from db.server.cpu.compute(db.query_setup_cpu_us / 3)
            yield from manager.run(
                lambda txn: body(state, worker_rng, config, district, txn), name=name
            )
            return name, None

        return run

    def worker(index: int):
        worker_rng = np.random.default_rng(config.seed * 7919 + index)
        base = index * config.transactions_per_worker
        for position in range(base, base + config.transactions_per_worker):
            yield op(position, worker_rng)

    before = manager.stats()
    run = run_clients(db.sim, [worker(index) for index in range(config.workers)])
    after = manager.stats()
    return run, TpccReport(*(after[key] - before[key] for key in (
        "commits", "aborts", "deadlocks_detected", "retries", "dooms", "lock_wait_us"
    )))
