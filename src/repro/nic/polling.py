"""A kernel-bypass network adaptor: host-mapped ring, no interrupts.

DPDK-style receive: arriving frames are DMA'd into a ring mapped into
the stack's address space and the NIC raises *no* interrupt — ever.  A
dedicated busy-poll core (see :class:`repro.core.polling_stack.PollingStack`)
spins on :meth:`poll_burst`, dequeuing frames in bursts and running
protocol input inline.  Drops happen only at the ring, before any host
CPU is spent, which is why the polling curve stays flat under overload
— the same *shape* as NI-LRP's early discard, bought with a whole core
instead of NIC firmware.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Sequence

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import Network
from repro.net.packet import Frame
from repro.nic.base import BaseNic
from repro.trace.tracer import flow_of

#: Receive ring size, frames (DPDK default rx descriptor counts are
#: in the hundreds; a deep ring absorbs bursts between polls).
DEFAULT_POLL_RING = 256


class PollingNic(BaseNic):
    """Interrupt-free NIC polled by a busy-poll core."""

    def __init__(self, sim: Simulator, network: Network, addr: IPAddr,
                 rx_ring_size: int = DEFAULT_POLL_RING, **base_kwargs):
        super().__init__(sim, network, addr, **base_kwargs)
        self.rx_ring_size = rx_ring_size
        self._ring: Deque[Frame] = deque()
        self.stack = None  # installed by the scenario builder
        self.rx_polled = 0      # frames handed to the poll loop
        self.poll_rounds = 0    # poll_burst calls
        self.empty_polls = 0    # poll_burst calls that found nothing

    def receive_frame(self, frame: Frame) -> None:
        self.rx_frames += 1
        trace = self.sim.trace
        if self.stalled:
            self.rx_drops_stall += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="nic_stall")
            return
        if len(self._ring) >= self.rx_ring_size:
            self.rx_drops_ring += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="ring_full")
            return
        if trace.enabled:
            trace.pkt_enqueue("rx_ring", flow_of(frame.packet))
        self._ring.append(frame)

    def poll_burst(self, max_frames: int) -> Sequence[Frame]:
        """Dequeue up to *max_frames* frames; never blocks, never
        interrupts.  Called from the busy-poll process."""
        self.poll_rounds += 1
        ring = self._ring
        if not ring:
            self.empty_polls += 1
            return ()
        burst = []
        while ring and len(burst) < max_frames:
            burst.append(ring.popleft())
        self.rx_polled += len(burst)
        return burst
