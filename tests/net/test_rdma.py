"""Unit tests for RDMA verbs, registration and the fabric."""

import pytest

from repro.cluster import Cluster
from repro.net import (
    MR_MAX_SIZE,
    MemoryRegion,
    Network,
    NetworkDown,
    QueuePair,
    RdmaError,
    RdmaRegistrar,
)
from repro.sim import ABORTED, Event, LatencyRecorder
from repro.storage import KB, MB


def make_pair():
    cluster = Cluster()
    network = Network(cluster.sim)
    db = cluster.add_server("db")
    mem = cluster.add_server("mem")
    network.attach(db)
    network.attach(mem)
    return cluster, db, mem


def complete(sim, work):
    """Run a generator — or a verb / transfer, which is an event — to its end."""
    return sim.run_until_complete(work if isinstance(work, Event) else sim.spawn(work))


class TestRegistration:
    def test_register_costs_50us_for_one_page(self):
        cluster, _db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        assert registrar.registration_cost_us(8 * KB) == pytest.approx(50.0)

    def test_register_pins_memory(self):
        cluster, _db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        before = mem.memory_available
        region = complete(cluster.sim, registrar.register(64 * MB))
        assert region.registered
        assert mem.memory_available == before - 64 * MB

    def test_deregister_releases_memory(self):
        cluster, _db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        before = mem.memory_available
        region = complete(cluster.sim, registrar.register(64 * MB))
        complete(cluster.sim, registrar.deregister(region))
        assert not region.registered
        assert mem.memory_available == before

    def test_mr_size_limit(self):
        cluster, _db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        with pytest.raises(RdmaError):
            complete(cluster.sim, registrar.register(MR_MAX_SIZE + 1))

    def test_registration_takes_time(self):
        cluster, _db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        complete(cluster.sim, registrar.register(8 * KB))
        assert cluster.sim.now == pytest.approx(50.0)


class TestMemoryRegion:
    def test_out_of_range_rejected(self):
        cluster, _db, mem = make_pair()
        region = MemoryRegion(mem, 1024)
        with pytest.raises(RdmaError):
            region.put_object(1020, 8, "page")
        with pytest.raises(RdmaError):
            region.put_object(-1, 1, "page")

    def test_object_overlay(self):
        cluster, _db, mem = make_pair()
        region = MemoryRegion(mem, 1 * MB)
        payload = {"page": 42}
        region.put_object(8192, 8192, payload)
        assert region.get_object(8192) is payload
        region.drop_object(8192)
        with pytest.raises(RdmaError):
            region.get_object(8192)
        region.put_object(0, 8192, payload)
        region.clear()  # a lease ended: every extent is gone
        with pytest.raises(RdmaError):
            region.get_object(0)


class TestQueuePair:
    def test_read_roundtrip(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        page = {"page": 7}
        region.put_object(0, 8192, page)
        qp = QueuePair(db, mem)
        assert complete(cluster.sim, qp.read(region, 0, 8192)) is page
        assert qp.reads == 1

    def test_write_then_read(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        qp = QueuePair(db, mem)
        assert complete(cluster.sim, qp.write(region, 4096, 1000, "page")) == 1000
        assert region.get_object(4096) == "page"
        complete(cluster.sim, qp.write(region, 8192, 1000))  # timing-only
        with pytest.raises(RdmaError):
            region.get_object(8192)

    def test_unloaded_8k_read_is_about_10us(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        qp = QueuePair(db, mem)
        start = cluster.sim.now
        assert complete(cluster.sim, qp.read(region, 0, 8192, nodata=True)) is None
        latency = cluster.sim.now - start
        # Paper: remote memory access via RDMA ~10 usec.
        assert 5 < latency < 15

    def test_read_does_not_use_remote_cpu(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        qp = QueuePair(db, mem)
        busy_before = mem.cpu.cores.utilization()
        complete(cluster.sim, qp.read(region, 0, 8192, nodata=True))
        # Registration used CPU, but the read itself must not.
        assert mem.cpu.cores.in_use == 0
        assert mem.cpu.cores.utilization() <= busy_before + 1e-9

    def test_disconnected_qp_rejects_ops(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        region.put_object(0, 8192, "page")
        qp = QueuePair(db, mem)
        qp.disconnect()
        with pytest.raises(RdmaError):
            complete(cluster.sim, qp.read(region, 0, 8192))

    def test_unregistered_region_rejected(self):
        cluster, db, mem = make_pair()
        region = MemoryRegion(mem, 1 * MB)  # never registered
        region.put_object(0, 8192, "page")
        qp = QueuePair(db, mem)
        with pytest.raises(RdmaError):
            complete(cluster.sim, qp.read(region, 0, 8192))

    def test_region_must_belong_to_target(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(db)
        region = complete(cluster.sim, registrar.register(1 * MB))
        region.put_object(0, 8192, "page")
        qp = QueuePair(db, mem)
        with pytest.raises(RdmaError):
            complete(cluster.sim, qp.read(region, 0, 8192))

    def test_opaque_object_transfer(self):
        cluster, db, mem = make_pair()
        registrar = RdmaRegistrar(mem)
        region = complete(cluster.sim, registrar.register(1 * MB))
        qp = QueuePair(db, mem)
        page = ["row1", "row2"]
        complete(cluster.sim, qp.write(region, 0, 8192, page))
        got = complete(cluster.sim, qp.read(region, 0, 8192))
        assert got is page


class TestInFlightRaces:
    """disconnect()/deregister() racing one-sided verbs mid-transfer."""

    def _start_read(self, cluster, qp, region, size=1 * MB):
        sim = cluster.sim
        outcome = {}

        def reader():
            try:
                outcome["value"] = yield qp.read(region, 0, size)
            except RdmaError as exc:
                outcome["error"] = exc

        return sim.spawn(reader()), outcome

    def test_disconnect_mid_flight_fails_read_on_resume(self):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(4 * MB))
        region.put_object(0, 1 * MB, "old image")
        qp = QueuePair(db, mem)
        process, outcome = self._start_read(cluster, qp, region)

        def breaker():
            yield sim.timeout(5.0)  # mid-transfer (a 1 MB read takes ~260 us)
            assert region.inflight == 1
            qp.disconnect()

        sim.spawn(breaker())
        sim.run()
        assert "value" not in outcome
        assert "disconnected while transfer in flight" in str(outcome["error"])
        assert region.inflight == 0

    def test_disconnect_mid_flight_fails_write_on_resume(self):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(4 * MB))
        qp = QueuePair(db, mem)
        outcome = {}

        def writer():
            try:
                yield qp.write(region, 0, 1 * MB, "new image")
            except RdmaError as exc:
                outcome["error"] = exc

        sim.spawn(writer())

        def breaker():
            yield sim.timeout(5.0)
            qp.disconnect()

        sim.spawn(breaker())
        sim.run()
        assert "error" in outcome
        # The object never landed: the write failed before touching data.
        with pytest.raises(RdmaError):
            region.get_object(0)

    def test_reconnect_epoch_still_fails_original_op(self):
        """Even if a new connection comes up, the old op must fail."""
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(4 * MB))
        qp = QueuePair(db, mem)
        process, outcome = self._start_read(cluster, qp, region)

        def bounce():
            yield sim.timeout(5.0)
            qp.disconnect()
            qp.connected = True  # "reconnect" — epoch already advanced

        sim.spawn(bounce())
        sim.run()
        assert "error" in outcome

    def test_deregister_with_inflight_reads_asserts(self):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(4 * MB))
        qp = QueuePair(db, mem)
        self._start_read(cluster, qp, region)
        failures = {}

        def revoker():
            yield sim.timeout(5.0)
            try:
                yield from registrar.deregister(region)
            except RdmaError as exc:
                failures["error"] = exc

        sim.spawn(revoker())
        sim.run()
        assert "in flight" in str(failures["error"])
        assert region.registered  # assert semantics: nothing was freed

    def test_deregister_force_dooms_inflight_read(self):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        before = mem.memory_available
        region = complete(sim, registrar.register(4 * MB))
        qp = QueuePair(db, mem)
        process, outcome = self._start_read(cluster, qp, region)

        def revoker():
            yield sim.timeout(5.0)
            yield from registrar.deregister(region, force=True)

        sim.spawn(revoker())
        sim.run()
        assert "deregistered while transfer in flight" in str(outcome["error"])
        assert region.doomed and not region.registered
        assert mem.memory_available == before  # memory really freed

    def test_deregister_force_is_noop_without_inflight(self):
        cluster, _db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(1 * MB))
        complete(sim, registrar.deregister(region, force=True))
        assert not region.doomed  # force only dooms when ops are in flight

    def test_clean_ops_unaffected_by_recheck(self):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        registrar = RdmaRegistrar(mem)
        region = complete(sim, registrar.register(1 * MB))
        qp = QueuePair(db, mem)
        complete(sim, qp.write(region, 0, 2, "ok"))
        assert complete(sim, qp.read(region, 0, 2)) == "ok"
        assert region.inflight == 0


class TestPostedVerbsCutShort:
    """A spawned verb is a kernel-stepped chain; whatever cuts it short —
    and wherever along its six service times — it completes with the abort
    sentinel and leaves nothing behind: no in-flight count on the region,
    no NIC engine held or queued for, no entry in the port's abort list."""

    SIZE = 1 * MB

    def _posted(self, contended=False):
        cluster, db, mem = make_pair()
        sim = cluster.sim
        self.registrar = RdmaRegistrar(mem)
        region = complete(sim, self.registrar.register(4 * MB))
        region.put_object(0, self.SIZE, "old image")
        qp = QueuePair(db, mem, read_latency=LatencyRecorder("reads"))
        if contended:
            # Someone else's payload occupies both engines of the read's
            # path first, so the verb queues for them (a Resource.hold).
            sim.spawn(self._other_traffic(mem, db))
        return cluster, db, mem, region, qp

    def _other_traffic(self, src, dst):
        try:
            yield src.nic.transfer(dst.nic, self.SIZE)
        except NetworkDown:
            pass  # yielded, not posted: the crash raises into its caller

    def _assert_nothing_left(self, sim, db, mem, region, verb):
        sim.run()
        assert verb.value is ABORTED
        assert region.inflight == 0
        for port in (db.nic, mem.nic):
            assert port.tx.in_use == port.rx.in_use == 0
            assert port.tx.queue_length == port.rx.queue_length == 0
            assert not port._inflight

    @classmethod
    def _stage_instants(cls, db):
        """One instant inside each of an unloaded 1 MB read's six stages."""
        profile, network = db.nic.profile, db.nic.network
        post = 0.3
        control = profile.per_message_us + network.propagation_us + profile.processing_us
        engine = profile.per_message_us + cls.SIZE / profile.bandwidth_bytes_per_us
        wire = network.propagation_us + profile.processing_us
        ends, clock = [], 0.0
        for length in (post, control, engine, wire, engine, post):
            ends.append((clock, clock + length))
            clock += length
        return [(begin + end) / 2 for begin, end in ends], clock

    @pytest.mark.parametrize("stage", range(6))
    @pytest.mark.parametrize("contended", [False, True])
    def test_provider_nic_fails_at_each_stage_of_a_read(self, stage, contended):
        cluster, db, mem, region, qp = self._posted(contended)
        sim = cluster.sim
        instants, _ = self._stage_instants(db)
        verb = qp.read(region, 0, self.SIZE, spawn="read")
        assert list(mem.nic._inflight) == [verb] and region.inflight == 1  # posted at once

        def crash():
            yield sim.timeout(instants[stage])
            assert region.inflight == 1
            mem.nic.fail()

        sim.spawn(crash())
        self._assert_nothing_left(sim, db, mem, region, verb)
        assert qp.reads == 0
        # Aborted reads are timed too (the registration above took a while).
        assert qp.read_latency.samples == [pytest.approx(instants[stage])]

    def test_unloaded_read_takes_the_six_stages(self):
        cluster, db, mem, region, qp = self._posted()
        _, total = self._stage_instants(db)
        posted_at = cluster.sim.now
        verb = qp.read(region, 0, self.SIZE, spawn="read")
        assert complete(cluster.sim, verb) == "old image"
        assert cluster.sim.now - posted_at == pytest.approx(total)
        assert qp.read_latency.samples == [cluster.sim.now - posted_at]
        assert not mem.nic._inflight

    def test_region_doomed_mid_read(self):
        cluster, db, mem, region, qp = self._posted()
        sim = cluster.sim
        verb = qp.read(region, 0, self.SIZE, spawn="read")

        def revoker():
            yield sim.timeout(100.0)
            yield from self.registrar.deregister(region, force=True)

        sim.spawn(revoker())
        self._assert_nothing_left(sim, db, mem, region, verb)
        assert region.doomed and qp.reads == 0

    def test_queue_pair_disconnected_mid_write(self):
        cluster, db, mem, region, qp = self._posted()
        sim = cluster.sim
        verb = qp.write(region, 0, self.SIZE, "new image", spawn="write")

        def breaker():
            yield sim.timeout(100.0)
            qp.disconnect()

        sim.spawn(breaker())
        self._assert_nothing_left(sim, db, mem, region, verb)
        assert qp.writes == 0
        assert region.get_object(0) == "old image"  # the new one never landed

    def test_dead_target_aborts_a_posted_verb_at_its_first_step(self):
        cluster, db, mem, region, qp = self._posted()
        mem.nic.alive = False
        posted_at = cluster.sim.now
        verb = qp.read(region, 0, self.SIZE, spawn="read")
        self._assert_nothing_left(cluster.sim, db, mem, region, verb)
        # Posted, then the control message found the port dark.
        assert cluster.sim.now - posted_at == pytest.approx(0.3)

    def test_stray_error_in_the_first_stage_raises_into_the_poster(self, monkeypatch):
        """A posted verb absorbs its own faults (``NetworkDown``,
        ``RdmaError``); any other error in its first stage — a bug — raises
        where the verb is posted, not later out of the event loop, and the
        verb leaves nothing behind."""
        cluster, db, mem, region, qp = self._posted()

        def broken(region):
            raise KeyError("bug")

        monkeypatch.setattr(qp, "_require_connected", broken)
        with pytest.raises(KeyError, match="bug"):
            qp.read(region, 0, self.SIZE, spawn="read")
        cluster.sim.run()
        assert region.inflight == 0 and not mem.nic._inflight
        assert qp.read_latency.samples == []

    def test_yielded_verb_raises_where_a_posted_one_aborts(self):
        cluster, db, mem, region, qp = self._posted()
        qp.disconnect()
        with pytest.raises(RdmaError, match="disconnected"):
            qp.read(region, 0, self.SIZE)
        verb = qp.read(region, 0, self.SIZE, spawn="read")
        self._assert_nothing_left(cluster.sim, db, mem, region, verb)
