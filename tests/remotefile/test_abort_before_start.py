"""Regression: a transfer aborted before its first step is still an abort.

A transfer used to be a spawned process around a generator whose
``try`` turned faults into the abort sentinel.  A provider crash popping
between the spawn and the process's bootstrap slot threw the interrupt
into the *unstarted* generator: the ``try`` was never entered, the
process "died silently" with value ``None`` — and ``None`` is not the
sentinel, so the waiting side took it for the page.  Both tests fail at
commit c83cf9d.
"""

import pytest

from repro.remotefile import RemoteMemoryUnavailable
from repro.storage import KB

from .test_remotefile import complete, create_open, make_fs

PAGE = 8 * KB


def _file_with_a_page():
    cluster, fs, _broker, proxies = make_fs(memory_servers=1)
    file = create_open(cluster, fs)
    complete(cluster.sim, file.write_object(0, PAGE, "old image"))
    return cluster, fs, file, proxies[0].server


def _crash_at(sim, provider, *legs):
    """Fail the provider's NIC after ``legs``; spawned after the victim, so
    at an equal instant its timer fires second — but before anything
    the victim put in the now-queue, such as a bootstrap slot."""

    def crasher():
        for leg in legs:
            yield sim.timeout(leg)
        provider.nic.fail()

    sim.spawn(crasher())


def test_read_interrupted_before_its_first_step_raises_unavailable():
    cluster, fs, file, provider = _file_with_a_page()
    sim = cluster.sim
    outcome = {}

    def reader():
        yield sim.timeout(5.0)
        try:
            outcome["value"] = yield from file.read_object(0, PAGE)
        except RemoteMemoryUnavailable as exc:
            outcome["error"] = exc

    sim.spawn(reader())
    _crash_at(sim, provider, 5.0)
    sim.run()
    assert "value" not in outcome  # was None: the pool would have called None.copy()
    assert "read aborted" in str(outcome["error"])
    assert fs.staging.slots.in_use == 0 and not provider.nic._inflight
    assert file.io_latency.samples == [0.0]  # timed, as every posted read is


def test_write_behind_interrupted_before_its_first_step_reports_the_abort():
    cluster, fs, file, provider = _file_with_a_page()
    sim = cluster.sim
    aborted = []

    def writer():
        yield sim.timeout(5.0)
        yield from file.write_object(
            0, PAGE, "new image", background=True, on_abort=lambda: aborted.append(sim.now)
        )

    sim.spawn(writer())
    # The write is posted once the page is copied into the staging buffer.
    copied_at = sim.now + 5.0 + fs.staging.memcpy_us(PAGE)
    _crash_at(sim, provider, 5.0, fs.staging.memcpy_us(PAGE))
    sim.run()
    # Was dropped silently: no on_abort, so the caller went on trusting a
    # remote copy that still held the old image.
    assert aborted == [pytest.approx(copied_at)]
    lease, mr_offset, _length = file._locate(0, PAGE)[0]
    assert lease.region.get_object(mr_offset) == "old image"
    assert fs.staging.slots.in_use == 0 and not provider.nic._inflight
    assert not file._landing
