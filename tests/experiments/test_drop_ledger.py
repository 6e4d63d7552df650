"""Figure 3's drop fields must each count a different packet: on an
overloaded point their sum is at most the packets sent.

SOFT-LRP and Early-Demux break this today.  ``drop_channel`` adds
SOFT-LRP's channel discards (``NiChannel.total_discards``) to its
``drop_channel_early`` stat, which counts the same events, and
Early-Demux counts each socket-queue early drop as both
``drop_channel`` and ``drop_early_sockq``.  Fixing the fields moves
the benchmark's pinned outputs, so the defect is recorded here as a
strict xfail until then.
"""

import pytest

from repro.core import Architecture
from repro.experiments.figure3 import run_point

DOUBLE_COUNTED = pytest.mark.xfail(
    strict=True, reason="figure-3 drop fields count some drops twice")


@pytest.mark.parametrize("arch", [
    Architecture.BSD,
    Architecture.NI_LRP,
    pytest.param(Architecture.SOFT_LRP, marks=DOUBLE_COUNTED),
    pytest.param(Architecture.EARLY_DEMUX, marks=DOUBLE_COUNTED),
], ids=lambda arch: arch.value)
def test_figure3_drops_at_most_sent(arch):
    point = run_point(arch, 20_000, warmup_usec=100_000.0,
                      window_usec=100_000.0)
    drops = sum(value for key, value in point.items()
                if key.startswith("drop_"))
    assert drops <= point["sent"]
