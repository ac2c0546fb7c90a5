"""ADAPTIVE wait policy: spin for fast transfers, yield for slow ones.

Section 4.1.3: a healthy remote read completes in ~10 µs — comparable
to a context switch — so the adaptive policy spins for up to
``ADAPTIVE_SPIN_US`` and only falls back to the asynchronous (yield +
reschedule) path when the transfer is genuinely slow, e.g. during a
brown-out.
"""

from repro.remotefile import AccessPolicy
from repro.remotefile.api import ADAPTIVE_SPIN_US
from repro.storage import KB

from .test_remotefile import complete, create_open, make_fs


def busy_core_us(cpu, action):
    """Core-µs consumed on ``cpu`` while ``action()`` runs."""
    cores = cpu.cores
    cores._account()
    before = cores._busy_area
    action()
    cores._account()
    return cores._busy_area - before


def setup(policy):
    cluster, fs, _broker, _proxies = make_fs(memory_servers=1, policy=policy)
    file = create_open(cluster, fs, size=16 * KB * 1024)
    file.install(0, 8 * KB, "page")
    return cluster, file, fs.owner


class TestAdaptiveFastPath:
    def test_fast_transfer_spins_and_never_switches(self):
        cluster, file, db = setup(AccessPolicy.ADAPTIVE)
        sim = cluster.sim
        start = sim.now
        busy = busy_core_us(db.cpu, lambda: complete(sim, file.read(0, 8 * KB)))
        latency = sim.now - start
        assert db.cpu.context_switches == 0
        assert latency < ADAPTIVE_SPIN_US * 2
        # Spinning: the core is busy for essentially the whole wait.
        assert busy >= latency * 0.5

    def test_fast_path_costs_the_same_as_sync(self):
        results = {}
        for policy in (AccessPolicy.ADAPTIVE, AccessPolicy.SYNC):
            cluster, file, db = setup(policy)
            sim = cluster.sim
            start = sim.now
            busy = busy_core_us(db.cpu, lambda: complete(sim, file.read(0, 8 * KB)))
            results[policy] = (sim.now - start, busy)
        adaptive, sync = results[AccessPolicy.ADAPTIVE], results[AccessPolicy.SYNC]
        assert adaptive[0] == sync[0]  # same latency
        assert abs(adaptive[1] - sync[1]) < 1.0  # same core-µs, no switch tax


class TestAdaptiveFallback:
    def test_slow_transfer_yields_the_core(self):
        cluster, file, db = setup(AccessPolicy.ADAPTIVE)
        sim = cluster.sim
        # Brown out the provider link: transfers now dwarf the spin budget.
        file.leases[0].region.server.nic.degrade(latency_multiplier=100.0)
        start = sim.now
        busy = busy_core_us(db.cpu, lambda: complete(sim, file.read(0, 8 * KB)))
        latency = sim.now - start
        assert db.cpu.context_switches == 1
        assert latency > ADAPTIVE_SPIN_US * 4
        # The core was held only for the spin budget, the switch-in and
        # the memcpy — not for the whole degraded wait.
        assert busy < latency * 0.5
        assert busy >= ADAPTIVE_SPIN_US + db.cpu.context_switch_us

    def test_fallback_pays_reschedule_delay(self):
        slow = setup(AccessPolicy.ADAPTIVE)
        sync = setup(AccessPolicy.SYNC)
        latencies = {}
        for label, (cluster, file, _db) in (("adaptive", slow), ("sync", sync)):
            file.leases[0].region.server.nic.degrade(latency_multiplier=100.0)
            sim = cluster.sim
            start = sim.now
            complete(sim, file.read(0, 8 * KB))
            latencies[label] = sim.now - start
        # Same transfer; the adaptive fallback adds the reschedule +
        # context-switch penalty on top of the SYNC latency.
        penalty = latencies["adaptive"] - latencies["sync"]
        _cluster, _file, db = slow
        expected = db.cpu.reschedule_delay_us + db.cpu.context_switch_us
        assert abs(penalty - expected) < 1.0
