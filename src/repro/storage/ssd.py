"""SSD model calibrated to the paper's SAS SLC drive (Table 3, Fig 3/4).

The 2013-era enterprise SAS SSD behind the RAID controller shows:

* random 8K reads : ~0.24 GB/s at 20 outstanding (≈30 K IOPS, ~620 µs
  latency at saturation),
* sequential 512K : ~0.39 GB/s — *slower* than the 20-spindle RAID-0
  array, which drives the paper's decision to disable BPExt for the
  analytic workloads in the HDD/HDD+SSD baselines.

The model is a serialized controller pipe: each request occupies the
pipe for ``per_op + size / bandwidth``; a parallel fixed access latency
covers flash read + controller dispatch so single-threaded latency stays
realistic without affecting saturated throughput.
"""

from __future__ import annotations

from ..sim import Simulator
from ..sim.kernel import ProcessGenerator
from .device import MB, BlockDevice, IoOp

__all__ = ["SsdDevice", "SSD_PROFILE"]


class SsdProfile:
    #: Fixed per-request controller/command overhead (serialized).
    per_op_us = 12.5
    #: Media/interface streaming bandwidth.
    bandwidth_bytes_per_us = 400 * MB / 1e6
    #: Parallel access latency (flash read, not serialized).
    access_us = 100.0
    #: Writes are slower on SLC-era drives: program time multiplier.
    write_penalty = 1.5


SSD_PROFILE = SsdProfile()


class SsdDevice(BlockDevice):
    """Single SSD with one controller pipe and parallel flash access."""

    def __init__(self, sim: Simulator, name: str = "ssd", profile: SsdProfile = SSD_PROFILE):
        super().__init__(sim, name)
        self.profile = profile
        self._pipe = sim.resource(capacity=1, name=f"{name}.pipe")

    def _service(self, op: IoOp, offset: int, size: int) -> ProcessGenerator:
        profile = self.profile
        # Flash access happens for all queued requests in parallel.
        access = self.sim.timeout(profile.access_us)
        pipe_time = profile.per_op_us + size / profile.bandwidth_bytes_per_us
        if op is IoOp.WRITE:
            pipe_time *= profile.write_penalty
        yield from self._pipe.use(pipe_time)
        if not access.processed:
            yield access
