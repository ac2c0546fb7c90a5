"""The I/O micro-benchmark targets (Figures 3-6): every design, driven by
short SQLIO patterns, lands on its recorded virtual clock.

The pins were recorded at the commit before block devices and SMB
clients became their own targets (no adapter around them): the
schedule of every medium must not move.
"""

import pytest

from repro.harness.iobench import IO_DESIGNS, build_custom_multi, build_io_target, build_multi_db
from repro.storage import GB, KB
from repro.workloads.sqlio import SqlioPattern, launch_sqlio

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
    ``(sim.now, events_processed, latency sum)``."""
    sim = targets[0].cluster.sim
    rng = targets[0].cluster.rng.stream("sqlio")
    pins = []
    for pattern, write in PATTERNS:
        launched = [
            launch_sqlio(sim, target, pattern, span_bytes=target.span_bytes, rng=rng, write=write)
            for target in targets
        ]
        for processes, _finalize in launched:
            for process in processes:
                sim.run_until_complete(process)
        latency = sum(sum(finalize().latency.samples) for _processes, finalize in launched)
        pins.append((sim.now, sim.events_processed, latency))
    return pins


BUILDERS = {
    **{design: (lambda design=design: [build_io_target(design, span_bytes=SPAN, seed=2)])
       for design in IO_DESIGNS},
    "Custom x2": lambda: [build_custom_multi(2, span_bytes=SPAN, seed=2)],
    "2 DB servers": lambda: build_multi_db(2, per_db_span=SPAN, seed=2),
}

#: (sim.now, events_processed, latency sum) after each of PATTERNS.
PINS = {
    "2 DB servers": [
        (1653517.737039748, 582, 760.3364944905043),
        (1654827.899250395, 709, 4695.114120365586),
        (1654929.636290143, 1210, 760.3364944905043),
    ],
    "Custom": [
        (826784.7368543837, 284, 295.47031250037253),
        (827805.70496781, 343, 1951.013773148763),
        (827882.4418221937, 588, 295.47031250037253),
    ],
    "Custom x2": [
        (990872.7368543837, 277, 295.47031250037253),
        (991893.70496781, 336, 1951.013773148763),
        (991970.4418221937, 572, 295.47031250037253),
    ],
    "HDD(20)": [
        (15956.623707495522, 171, 60099.105174202356),
        (27035.891213480852, 421, 22072.240505913356),
        (43922.1783544372, 573, 60800.29646208692),
    ],
    "HDD(4)": [
        (21368.09287436863, 155, 82128.26879283343),
        (35855.35319651757, 396, 28848.16511221684),
        (60478.643596416434, 557, 92023.16750603731),
    ],
    "HDD(8)": [
        (20212.62458411015, 159, 68190.90202947697),
        (30102.09552591623, 406, 18984.49743916771),
        (51715.193680806326, 561, 78990.13749450285),
    ],
    "SMB+RamDrive": [
        (779.5391976492745, 463, 3104.669110979353),
        (3234.987801688059, 581, 4771.320159912111),
        (4014.5269993373386, 1045, 3104.669110979373),
    ],
    "SMBDirect+RamDrive": [
        (152.03184678819446, 271, 575.127387152778),
        (988.9733977141203, 342, 1582.960648148148),
        (1141.0052445023155, 614, 575.1273871527799),
    ],
    "SSD": [
        (768.75, 79, 2882.8125),
        (8343.75, 101, 13887.5),
        (9496.875, 181, 4324.21875),
    ],
}


def test_every_design_is_pinned():
    assert set(PINS) == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_target_keeps_its_schedule(name):
    assert fingerprint(BUILDERS[name]()) == PINS[name]
