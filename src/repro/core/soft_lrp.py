"""SOFT-LRP: LRP with demultiplexing in the host interrupt handler.

For adaptors without a programmable processor, "the demultiplexing
function can be performed in the network driver's interrupt handler"
(Section 3.2).  Each arriving frame costs the host one hardware
interrupt *plus the demux function* (~25 us on the paper's hardware),
after which the packet sits on its NI channel until the receiver (or
the APP process, for TCP) pulls it — or is discarded immediately if
the channel is full.  Because a small per-packet host cost remains,
SOFT-LRP "merely postpones" livelock rather than eliminating it; the
postponement is visible in Figure 3's gentle decline.
"""

from __future__ import annotations

from repro.host.interrupts import HARDWARE, IntrTask, SimpleIntrTask
from repro.net.packet import Frame
from repro.nic.channels import enqueue
from repro.core.lrp_base import LrpStackBase


class SoftLrpStack(LrpStackBase):
    """LRP with soft demux (hardware independent)."""

    arch_name = "SOFT-LRP"

    def rx_interrupt(self, frame: Frame, ring_release,
                     core: int) -> IntrTask:
        def action() -> None:
            ring_release()
            channel = self.soft_demux(frame.packet)
            if channel is None:
                return
            was_empty = len(channel) == 0
            if enqueue(channel, frame.packet, self.sim.trace):
                self.on_channel_filled(channel, was_empty)
            else:
                # Early packet discard: no further host resources are
                # spent (Section 3, technique 2).
                self.stats.incr("drop_channel_early")

        return SimpleIntrTask(self.costs.hw_intr + self.costs.soft_demux,
                              HARDWARE, "rx-demux", action=action)
