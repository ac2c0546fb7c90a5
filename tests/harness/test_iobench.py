"""The I/O micro-benchmark targets (Figures 3-6): every design, driven by
short SQLIO patterns, lands on its recorded virtual clock.

The virtual pins were recorded at the commit before block devices and
SMB clients became their own targets (no adapter around them): the
schedule of every medium must not move.  The event counts are pinned
apart: a kernel change that retires fewer events for the same virtual
times re-records only those.
"""

import pytest

from repro.harness.iobench import IO_DESIGNS, build_custom_multi, build_io_target, build_multi_db
from repro.storage import GB, KB
from repro.workloads import SqlioPattern, run_clients, sqlio_clients

SPAN = 1 * GB

#: Short versions of the figure patterns, plus a random-write one.
PATTERNS = (
    (SqlioPattern("8K Random", threads=4, io_bytes=8 * KB, random=True, ops_per_thread=6), False),
    (SqlioPattern("512K Sequential", threads=2, io_bytes=512 * KB, random=False,
                  ops_per_thread=3), False),
    (SqlioPattern("8K Random Write", threads=4, io_bytes=8 * KB, random=True,
                  ops_per_thread=6), True),
)


def fingerprint(targets):
    """Run each pattern on every target at once; after each, record
    ``(sim.now, latency sum)`` and, apart, ``events_processed``."""
    sim = targets[0].cluster.sim
    rng = targets[0].cluster.rng.stream("sqlio")
    pins, events = [], []
    for pattern, write in PATTERNS:
        run = run_clients(sim, [
            client
            for target in targets
            for client in sqlio_clients(
                target, pattern, span_bytes=target.span_bytes, rng=rng, write=write
            )
        ])
        latency = sum(sum(run.by_label[target.name].samples) for target in targets)
        pins.append((sim.now, latency))
        events.append(sim.events_processed)
    return pins, events


BUILDERS = {
    **{design: (lambda design=design: [build_io_target(design, span_bytes=SPAN, seed=2)])
       for design in IO_DESIGNS},
    "Custom x2": lambda: [build_custom_multi(2, span_bytes=SPAN, seed=2)],
    "2 DB servers": lambda: build_multi_db(2, per_db_span=SPAN, seed=2),
}

#: (sim.now, latency sum) after each of PATTERNS.
PINS = {
    "2 DB servers": [
        (1653517.737039748, 760.3364944905043),
        (1654827.899250395, 4695.114120365586),
        (1654929.636290143, 760.3364944905043),
    ],
    "Custom": [
        (826784.7368543837, 295.47031250037253),
        (827805.70496781, 1951.013773148763),
        (827882.4418221937, 295.47031250037253),
    ],
    "Custom x2": [
        (990872.7368543837, 295.47031250037253),
        (991893.70496781, 1951.013773148763),
        (991970.4418221937, 295.47031250037253),
    ],
    "HDD(20)": [
        (15956.623707495522, 60099.105174202356),
        (27035.891213480852, 22072.240505913356),
        (43922.1783544372, 60800.29646208692),
    ],
    "HDD(4)": [
        (21368.09287436863, 82128.26879283343),
        (35855.35319651757, 28848.16511221684),
        (60478.643596416434, 92023.16750603731),
    ],
    "HDD(8)": [
        (20212.62458411015, 68190.90202947697),
        (30102.09552591623, 18984.49743916771),
        (51715.193680806326, 78990.13749450285),
    ],
    "SMB+RamDrive": [
        (779.5391976492745, 3104.669110979353),
        (3234.987801688059, 4771.320159912111),
        (4014.5269993373386, 3104.669110979373),
    ],
    "SMBDirect+RamDrive": [
        (152.03184678819446, 575.127387152778),
        (988.9733977141203, 1582.960648148148),
        (1141.0052445023155, 575.1273871527799),
    ],
    "SSD": [
        (768.75, 2882.8125),
        (8343.75, 13887.5),
        (9496.875, 4324.21875),
    ],
}

#: events_processed after each of PATTERNS: a count, not a result, so a
#: kernel change that retires fewer events re-records only these.
EVENTS = {
    "2 DB servers": [378, 463, 810],
    "Custom": [183, 226, 396],
    "Custom x2": [185, 228, 398],
    "HDD(20)": [174, 427, 582],
    "HDD(4)": [158, 404, 566],
    "HDD(8)": [162, 414, 570],
    "SMB+RamDrive": [428, 528, 959],
    "SMBDirect+RamDrive": [269, 333, 603],
    "SSD": [59, 79, 139],
}


def test_every_design_is_pinned():
    assert set(PINS) == set(EVENTS) == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_target_keeps_its_schedule(name):
    pins, events = fingerprint(BUILDERS[name]())
    assert pins == PINS[name]
    assert events == EVENTS[name]
