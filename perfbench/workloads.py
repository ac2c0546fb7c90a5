"""The five benchmark workloads: build, warm up, run closed-loop ops, check answers.

Every workload is a closed loop of *simulated* clients inside one
discrete-event simulation (never host threads): a client issues its next
op only when the previous one returned.  The op sequence is a pure
function of ``--seed``; the engine under test only ever sees the
generated ops.  Sizes are fixed here (and explained in README.md) so two
commits always run the same work.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.dist import DistSpec, Strategy, build_strategy, execute_plan
from repro.harness import Design, build_database, prewarm_extension, prewarm_pool
from repro.sim.kernel import AllOf
from repro.txn import DEFAULT_TXN_POLICY, check_serializable, committed_row_images
from repro.workloads import (
    TPCH_QUERIES,
    TpccConfig,
    TpccScale,
    TpchScale,
    build_customer_table,
    build_tpcc_database,
    build_tpch_database,
    tpcc,
    tpch_order_lines_plan,
    tpch_returnflag_agg_plan,
    tpch_star_join_plan,
)
from repro.workloads.rangescan import read_query, update_query

EXPECTED_PATH = Path(__file__).with_name("expected_answers.json")
EXPECTED = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}

#: ``--seconds`` the per-client op counts below were sized for.
REFERENCE_SECONDS = 8
#: Phase tags, in the order they feed the seed sequence.
PHASES = ("warm", "measured")


def _canon(value) -> str:
    # Nine significant digits: a float aggregate survives a change of
    # summation order, a missing row does not.
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canon(item) for item in value) + ")"
    return repr(value)


def answer_digest(rows) -> list:
    """Row count + CRC of the rows as an order-free multiset."""
    text = "\n".join(sorted(_canon(row) for row in rows))
    return [len(rows), zlib.crc32(text.encode())]


def run_clients(sim, clients: list, tick=lambda: None) -> list[tuple]:
    """Drive one iterable of ops per simulated client to completion.

    Returns ``(virtual_latency_us, answer, ok)`` per op, client-major.
    An op that raises is recorded as failed and its client carries on,
    so one bad op cannot abort the run.  ``tick`` runs on the host after
    every op (the calibration probe); the simulation cannot see it.
    """
    results: list[list[tuple]] = [[] for _ in clients]

    def client(ops, out):
        for op in ops:
            begin = sim.now
            try:
                answer, ok = yield from op()
            except Exception as exc:  # boundary: count it, keep running
                answer, ok = f"{type(exc).__name__}: {exc}", False
            out.append((sim.now - begin, answer, ok))
            tick()

    processes = [sim.spawn(client(ops, out)) for ops, out in zip(clients, results)]

    def waiter():
        yield AllOf(sim, processes)

    sim.run_until_complete(sim.spawn(waiter()))
    return [result for out in results for result in out]


class Workload:
    """One workload instance, bound to a seed."""

    name: str
    #: Simulated closed-loop clients.
    clients: int
    #: Per-client op counts: measured (at REFERENCE_SECONDS), warm-up,
    #: and the (warm, measured) pair of ``--scale smoke``.
    ops_per_client: int
    warm_per_client: int
    smoke: tuple[int, int]

    def __init__(self, seed: int, trace: bool = False):
        self.seed = seed
        self.trace = trace
        #: Host-side hook run after every op (the calibration probe).
        self.tick = lambda: None
        #: Operator counters summed over every query result so far.
        self.exec = {"rows_out": 0, "spilled_runs": 0, "spilled_bytes": 0}
        #: Wrong outputs the program is known to give at the baseline
        #: commit; reported as per-layer counts, not as failures.
        self.anomalies = {"lost_row_updates": 0, "anomalous_answers": 0}
        self.manager = None  # TransactionManager, when the workload has one
        self.runtime = None  # dist ExchangeRuntime, when it has one

    # Set by build(): sim, registry, databases.
    def build(self) -> None:
        raise NotImplementedError

    def phase(self, tag: str, per_client: int) -> list[tuple]:
        """Generate the phase's ops from the seed and run them."""
        raise NotImplementedError

    def verify(self) -> list[str]:
        """Whole-run checks after the measured phase; returns failures."""
        return []

    def _rng(self, tag: str, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, PHASES.index(tag), *stream])

    def _decks(self, rng, weights, per_client: int) -> np.ndarray:
        """Per client, ``per_client`` draws in exact proportion, shuffled.

        Independent draws would let the count of rare heavy ops (4 % of
        TPC-C is Delivery) swing by a tenth between seeds, and the
        workload's cost with it; a shuffled deck keeps the mix exact and
        leaves the order to the seed.
        """
        shares = np.asarray(weights, dtype=float) * per_client / np.sum(weights)
        counts = np.floor(shares).astype(int)
        short = per_client - counts.sum()  # largest remainders round up
        counts[np.argsort(counts - shares)[:short]] += 1
        deck = np.repeat(np.arange(len(counts)), counts)
        return np.concatenate([rng.permutation(deck) for _ in range(self.clients)])

    def _count(self, metrics: dict) -> None:
        for key in self.exec:
            self.exec[key] += metrics[key]


class RangeScan(Workload):
    """Fig 7-10: short range queries over Customer, table > pool, < BPExt."""

    clients = 80
    ops_per_client = 260
    warm_per_client = 50
    smoke = (2, 6)
    ROWS = 120_000
    RANGE = 100

    def __init__(self, seed: int, trace: bool = False, update_fraction: float = 0.0):
        super().__init__(seed, trace)
        self.name = "rangescan_rw" if update_fraction else "rangescan_ro"
        self.update_fraction = update_fraction
        # build_customer_table: acctbal = 1000 + key % 9000, whole numbers,
        # so every sum below is exact in float64.
        balances = 1000 + np.arange(self.ROWS, dtype=np.int64) % 9000
        self.prefix = np.concatenate(([0], np.cumsum(balances)))
        self.updates_issued = 0
        self.rows_touched = 0

    def build(self) -> None:
        self.setup = build_database(
            Design.CUSTOM, bp_pages=1024, bpext_pages=6000, tempdb_pages=1024,
            data_spindles=20, seed=self.seed,
        )
        self.sim, self.registry = self.setup.sim, self.setup.metrics
        self.databases = [self.setup.database]
        self.table = build_customer_table(self.setup.database, self.ROWS)
        prewarm_extension(self.setup)
        prewarm_pool(self.setup)

    def phase(self, tag: str, per_client: int) -> list[tuple]:
        rng = self._rng(tag)
        total = self.clients * per_client
        starts = rng.integers(0, self.ROWS - self.RANGE, size=total)
        updates = self._decks(
            rng, [1 - self.update_fraction, self.update_fraction], per_client
        ).astype(bool)
        self.updates_issued += int(updates.sum())
        # Generators: an op's closure lives only while the op runs.
        clients = [
            (self._op(int(starts[i]), bool(updates[i])) for i in range(first, first + per_client))
            for first in range(0, total, per_client)
        ]
        return run_clients(self.sim, clients, self.tick)

    def _op(self, start: int, update: bool):
        db, table, span = self.setup.database, self.table, self.RANGE
        untouched = float(self.prefix[start + span] - self.prefix[start])
        # Each update bumps every balance in its range by one, so under
        # isolation a read sees at most this much on top (0 if read-only).
        slack = span * self.updates_issued
        read_only = not self.update_fraction

        def run():
            yield from db.server.cpu.compute(db.query_setup_cpu_us)
            if update:
                touched = yield from update_query(db, table, start, span)
                self.rows_touched += touched
                self.anomalies["anomalous_answers"] += touched != span
                return touched, True
            total = yield from read_query(db, table, start, span)
            isolated = untouched <= total <= untouched + slack and total == int(total)
            self.anomalies["anomalous_answers"] += not isolated
            # Autocommit updates are not isolated at the baseline commit
            # (README, "Known anomalies"): with updates in the mix a
            # non-isolated answer is counted, not failed.  Read-only
            # answers must match the closed form exactly.
            return total, isolated or not read_only

        return run

    def verify(self) -> list[str]:
        db, name = self.setup.database, self.table.name
        balance = self.table.schema.index_of("acctbal")
        # Checkpoint first: committed_row_images does not see write-behind
        # images still on their way to the data file.
        self.setup.run(db.pool.flush_all())
        images = committed_row_images(db, [self.table])
        if len(images) != self.ROWS:
            return [f"{len(images)} rows left of {self.ROWS}"]
        final = np.array([images[("row", name, key)][balance] for key in range(self.ROWS)])
        initial = np.diff(self.prefix)
        self.anomalies["lost_row_updates"] = int(
            initial.sum() + self.rows_touched - final.sum()
        )
        # Balances only ever grow, by whole bumps; with no updates in
        # the mix the table must be exactly as loaded.
        sound = (final == initial) if not self.update_fraction else (
            (final >= initial) & (final == np.floor(final))
        )
        return [] if sound.all() else [f"{int((~sound).sum())} rows hold an impossible balance"]


class TpchCustom(Workload):
    """Fig 18/19: 22 query templates in concurrent streams on Custom."""

    name = "tpch_custom"
    clients = 2
    ops_per_client = 22
    warm_per_client = 11
    smoke = (2, 2)
    #: Parameter variants per query template.  The seed draws from this
    #: finite menu, so every answer it can ask for is on record.
    VARIANTS = 4

    def build(self) -> None:
        self.setup = build_database(
            Design.CUSTOM, bp_pages=256, bpext_pages=2600, tempdb_pages=49152,
            data_spindles=20, analytic=True, seed=self.seed,
        )
        self.sim, self.registry = self.setup.sim, self.setup.metrics
        self.databases = [self.setup.database]
        # The data set is fixed (the fig18/19 one); the seed picks the
        # parameter variants.
        self.tables = build_tpch_database(self.setup.database)
        prewarm_extension(self.setup)

    def phase(self, tag: str, per_client: int) -> list[tuple]:
        clients = []
        for stream in range(1 if tag == "warm" else self.clients):  # one warm stream
            # Which big queries overlap decides how contended the NIC and
            # staging slots are, and with that the kernel's event count
            # (+-10 % between permutations).  So the stream orders are
            # fixed and the seed draws only the parameter variants.
            order_rng = np.random.default_rng([PHASES.index(tag), stream])
            rounds = -(-per_client // len(TPCH_QUERIES))
            order = np.concatenate(
                [order_rng.permutation(len(TPCH_QUERIES)) for _ in range(rounds)]
            )[:per_client]
            variants = self._rng(tag, stream).integers(0, self.VARIANTS, size=per_client)
            clients.append([self.op(int(q), int(v)) for q, v in zip(order, variants)])
        return run_clients(self.sim, clients, self.tick)

    def answer_keys(self) -> list[tuple]:
        return [(q, v) for q in range(len(TPCH_QUERIES)) for v in range(self.VARIANTS)]

    def op(self, query: int, variant: int):
        db, spec = self.setup.database, TPCH_QUERIES[query]
        key = f"{spec.name}/{variant}"

        def run():
            plan, memory, consumers = spec.factory(
                db, self.tables, np.random.default_rng([query, variant])
            )
            result = yield from db.execute(
                plan, requested_memory_bytes=memory, memory_consumers=consumers
            )
            self._count(result.metrics.to_dict())
            answer = answer_digest(result.rows)
            return [key, answer], EXPECTED.get(self.name, {}).get(key) == answer

        return run


class TpccHot(Workload):
    """BENCH_tpcc_txn's "high" conflict cell, scaled up: strict 2PL on Custom."""

    name = "tpcc_2pl_hot"
    clients = 20
    ops_per_client = 300
    warm_per_client = 70
    smoke = (5, 15)
    SCALE = TpccScale(warehouses=4, items=200, history_orders=40)

    def build(self) -> None:
        self.setup = build_database(
            Design.CUSTOM, bp_pages=830, bpext_pages=1650, tempdb_pages=512,
            seed=self.seed,
        )
        self.sim, self.registry = self.setup.sim, self.setup.metrics
        db = self.setup.database
        self.databases = [db]
        self.state = build_tpcc_database(db, self.SCALE, seed=self.seed)
        prewarm_extension(self.setup)
        # History costs host time, so only the traced run records it
        # (and runs the serializability checker on it).  The default
        # budget of 8 retries runs out about once in 70 000 transactions
        # at this conflict rate; the backoff schedule is unchanged.
        self.manager = db.transactions(
            policy=replace(DEFAULT_TXN_POLICY, retry_attempts=32),
            record_history=self.trace, rng=np.random.default_rng([self.seed, 0x7C17C1]),
        )
        self.config = TpccConfig(
            scale=self.SCALE, workers=self.clients, concurrency="2pl",
            hot_district_fraction=0.9, hot_district_share=0.25,
            record_history=self.trace, seed=self.seed,
        )

    def phase(self, tag: str, per_client: int) -> list[tuple]:
        # As repro.workloads.run_tpcc, but with the mix and the hot share
        # dealt from decks and per-op failures caught.
        rng = self._rng(tag)
        config, districts_total = self.config, self.SCALE.districts
        names = list(config.mix)
        choices = self._decks(rng, [config.mix[name] for name in names], per_client)
        hot_share = config.hot_district_fraction
        hot = self._decks(rng, [1 - hot_share, hot_share], per_client).astype(bool)
        districts = rng.integers(0, districts_total, size=len(hot))
        hot_count = max(1, int(districts_total * config.hot_district_share))
        districts[hot] = rng.integers(0, hot_count, size=int(hot.sum()))

        def ops_of(worker: int):  # a generator: closures live only while their op runs
            worker_rng = self._rng(tag, worker)
            return (
                self._op(names[int(choices[i])], int(districts[i]), worker_rng)
                for i in range(worker * per_client, (worker + 1) * per_client)
            )

        return run_clients(
            self.sim, [ops_of(worker) for worker in range(self.clients)], self.tick
        )

    def _op(self, name: str, district: int, rng):
        db, body = self.setup.database, getattr(tpcc, name)

        def run():
            yield from db.server.cpu.compute(db.query_setup_cpu_us / 3)
            yield from self.manager.run(
                lambda txn: body(self.state, rng, self.config, district, txn), name=name
            )
            return name, True

        return run

    def verify(self) -> list[str]:
        manager, state = self.manager, self.state
        failures = []
        if manager.exhausted:
            failures.append(f"{manager.exhausted} transactions exhausted their retries")
        if not manager.locks.idle:
            failures.append("lock table not idle after the run")
        if self.trace:
            tables = [state.warehouse, state.district, state.customer,
                      state.stock, state.orders, state.order_line]
            check = check_serializable(
                manager.history,
                final_rows=committed_row_images(self.setup.database, tables),
            )
            if not check.ok:
                failures.append(f"not serializable: {check.violations[:3]}")
        return failures


_TOP_N = (440, 460, 480, 500)
#: (name, builder, keyword arguments per variant): sixteen variants per
#: plan, each with its answer on record.  With one client and everything
#: cached an op's virtual latency depends on its plan and variant alone,
#: so a menu of four would give most seeds the very same median.
DIST_PLANS = (
    ("star_join", tpch_star_join_plan,
     [{"size_below": size, "top_n": n} for size in (23, 24, 25, 26) for n in _TOP_N]),
    ("order_lines", tpch_order_lines_plan,
     [{"acctbal_below": bal, "top_n": n} for bal in (725.0, 750.0, 775.0, 800.0) for n in _TOP_N]),
    ("returnflag_agg", tpch_returnflag_agg_plan,
     [{"ship_fraction": 0.5 + step / 100} for step in range(16)]),
)


class DistQueryMix(Workload):
    """Three IR plans under query shipping on four DB servers, one at a time."""

    name = "dist_query_mix"
    clients = 1
    ops_per_client = 72
    warm_per_client = 9
    smoke = (3, 3)
    SCALE = TpchScale(orders=8000, lines_per_order=4)
    PLANS = DIST_PLANS
    VARIANTS = 16

    def __init__(self, seed: int, trace: bool = False, strategy: Strategy = Strategy.QUERY):
        super().__init__(seed, trace)
        self.strategy = strategy
        self.executed = 0

    def build(self) -> None:
        spec = DistSpec(
            name="perfbench", db_servers=4, bp_pages=512, tempdb_pages=16384, seed=self.seed
        )
        # Page shipping (only --update-expected builds it, as the
        # cross-check) needs the remote extension query shipping omits.
        ext = 8192 if self.strategy is Strategy.PAGE else 0
        self.setup = build_strategy(self.strategy, spec, total_ext_pages=ext, scale=self.SCALE)
        self.sim, self.registry = self.setup.sim, self.setup.metrics
        self.databases, self.runtime = self.setup.databases, self.setup.runtime

    def phase(self, tag: str, per_client: int) -> list[tuple]:
        rng = self._rng(tag)
        ops = []
        while len(ops) < per_client:
            variants = rng.integers(0, self.VARIANTS, size=len(self.PLANS))
            ops += [self.op(int(p), int(variants[p])) for p in rng.permutation(len(self.PLANS))]
        results = []
        for op in ops[:per_client]:
            try:
                results.append(op())
            except Exception as exc:  # boundary: count it, keep running
                results.append((0.0, f"{type(exc).__name__}: {exc}", False))
            self.tick()
        return results

    def answer_keys(self) -> list[tuple]:
        return [(p, v) for p in range(len(self.PLANS)) for v in range(self.VARIANTS)]

    def op(self, plan_index: int, variant: int):
        name, builder, variants = self.PLANS[plan_index]
        key = f"{name}/{variant}"

        def run():
            self.executed += 1
            result = execute_plan(
                self.setup, builder(**variants[variant]),
                name=name, tag=f"op{self.executed}",  # unique exchange ids per run
            )
            self._count(result.metrics)
            answer = answer_digest(result.rows)
            ok = EXPECTED.get(self.name, {}).get(key) == answer
            return result.elapsed_us, [key, answer], ok

        return run


WORKLOADS = {
    "rangescan_ro": RangeScan,
    "rangescan_rw": lambda seed, trace=False: RangeScan(seed, trace, update_fraction=0.2),
    "tpch_custom": TpchCustom,
    "tpcc_2pl_hot": TpccHot,
    "dist_query_mix": DistQueryMix,
}


def update_expected() -> dict:
    """Regenerate expected_answers.json: every query variant, run alone.

    The dist answers are cross-checked against page shipping, whose
    single-node lowering shares no exchange code with query shipping.
    """
    def on_record(results) -> dict:
        for _lat, answer, _ok in results:
            if isinstance(answer, str):  # the op raised
                raise SystemExit(f"cannot record expected answers: {answer}")
        return {answer[0]: answer[1] for _lat, answer, _ok in results}

    tpch = TpchCustom(seed=0)
    tpch.build()
    expected = {
        tpch.name: on_record(
            run_clients(tpch.sim, [[tpch.op(*key) for key in tpch.answer_keys()]])
        )
    }
    by_strategy = {}
    for strategy in (Strategy.QUERY, Strategy.PAGE):
        dist = DistQueryMix(seed=0, strategy=strategy)
        dist.build()
        by_strategy[strategy] = on_record([dist.op(*key)() for key in dist.answer_keys()])
    if by_strategy[Strategy.QUERY] != by_strategy[Strategy.PAGE]:
        raise SystemExit("query shipping and page shipping disagree; nothing written")
    expected[DistQueryMix.name] = by_strategy[Strategy.QUERY]
    # One answer per line: a regenerated file diffs query by query.
    lines = [
        f'  "{name}": {{\n' + ",\n".join(
            f'    "{key}": {json.dumps(answer)}' for key, answer in sorted(answers.items())
        ) + "\n  }"
        for name, answers in sorted(expected.items())
    ]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return expected
