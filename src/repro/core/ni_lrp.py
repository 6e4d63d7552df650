"""NI-LRP: LRP with demultiplexing on the network interface.

The NIC's embedded processor classifies arriving packets and appends
them directly to per-socket NI channel queues; packets for full or
disabled channels are dropped *by the NIC*, before any host resource
is consumed.  The host sees an interrupt only when a channel with a
waiting receiver transitions from empty to non-empty (Section 3.3's
interrupt suppression), which is why NI-LRP's Figure 3 curve is flat
and its Figure 4 latency barely moves with background load.
"""

from __future__ import annotations

from repro.engine.process import Compute
from repro.host.interrupts import HARDWARE, SimpleIntrTask
from repro.nic.channels import NiChannel
from repro.nic.programmable import ProgrammableNic
from repro.core.lrp_base import LrpStackBase


class NiLrpStack(LrpStackBase):
    """LRP with NI demux (requires a :class:`ProgrammableNic`)."""

    arch_name = "NI-LRP"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.nic, ProgrammableNic):
            raise TypeError("NI-LRP requires a ProgrammableNic")
        self.nic.wakeup_handler = self._ni_channel_interrupt
        # Each packet consumed from an NI channel requires the host to
        # return a buffer to the adaptor's free queue.
        self.channel_pop = Compute(self.costs.dequeue
                                   + self.costs.ni_buffer_replenish)
        # The NIC firmware demuxes TCP and daemon channels on every
        # empty->non-empty transition; those flags stay armed.

    # ------------------------------------------------------------------
    def _ni_channel_interrupt(self, channel: NiChannel) -> None:
        """Host interrupt raised by the NIC on a watched channel's
        empty->non-empty transition.  Minimal processing: acknowledge
        and wake the consumer."""

        def action() -> None:
            self.stats.incr("ni_wakeup_interrupts")
            # The enqueue already happened on the NIC.
            self.wake_consumer(channel)

        self.kernel.cpu.post(SimpleIntrTask(self.costs.hw_intr,
                                            HARDWARE, "ni-wakeup",
                                            action=action))
