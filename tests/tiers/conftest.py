"""Shared fixtures for tier-stack tests.

Stack semantics (placement, demotion, promotion) are independent of the
backing medium, so the fixtures build two-level stacks from plain local
device stores — the engine rig's SSD over its HDD array — which keeps
the tests free of remote-memory bootstrap.
"""

import pytest

from repro.engine import BufferPoolExtension
from repro.engine.files import DevicePageFile
from repro.engine.page import Page
from repro.tiers import Tier
from tests.engine.conftest import EngineRig


@pytest.fixture
def rig():
    return EngineRig()


def make_page(n, file_id=1):
    return Page.build(file_id, n, [(n, "row")])


def make_stack(rig, cap_hot=2, cap_cold=8, promote=False):
    """SSD-over-HDD stack; ``promote`` pulls cold-tier hits back up."""
    hot = DevicePageFile(900, rig.db, rig.ssd, capacity_pages=cap_hot)
    cold = DevicePageFile(910, rig.db, rig.hdd, capacity_pages=cap_cold)
    return BufferPoolExtension(
        [
            Tier("bpext.ssd", hot, medium="ssd"),
            Tier("bpext.hdd", cold, medium="hdd", promote_on_hit=promote),
        ]
    )
