"""A programmable network adaptor with an embedded processor.

Models the FORE SBA-200's i960 running a demultiplexing firmware (the
paper used Cornell's U-Net firmware): incoming frames are classified
*on the NIC* by their headers and appended directly to per-socket NI
channel queues.
Packets for full or disabled channels are silently discarded by the
NIC — no host resources are ever spent on them.  A host interrupt is
raised only on a channel's empty->non-empty transition while a
receiver is waiting (interrupt suppression, Section 3.3).

The embedded CPU has finite capacity: frames are demultiplexed
serially at ``demux_cost`` microseconds each, with a bounded input
FIFO.  This keeps NI-LRP honest — the NIC is not magic, just a second
processor — though at the paper's packet rates it never saturates.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import Network
from repro.net.packet import Frame
from repro.nic.base import BaseNic
from repro.nic.channels import NiChannel, enqueue
from repro.nic.demux import DemuxTable
from repro.trace.tracer import flow_of

#: Frames the NIC processor's input FIFO holds.
DEFAULT_NIC_FIFO = 128


class ProgrammableNic(BaseNic):
    """NIC with firmware demux (NI-LRP's hardware substrate)."""

    def __init__(self, sim: Simulator, network: Network, addr: IPAddr,
                 demux_table: DemuxTable, demux_cost: float,
                 service_gap: float,
                 fifo_size: int = DEFAULT_NIC_FIFO):
        super().__init__(sim, network, addr)
        self.table = demux_table
        #: Classification latency added to each frame.
        self.demux_cost = demux_cost
        #: Firmware pipeline service interval: one frame may *start*
        #: service every ``service_gap`` microseconds (i960 throughput
        #: bound; overlapped with DMA, hence decoupled from latency).
        self.service_gap = service_gap
        self.fifo_size = fifo_size

        self._fifo: Deque[Frame] = deque()
        self._next_service = 0.0

        #: Installed by the stack: called (in host interrupt context is
        #: arranged by the stack) when a channel with a waiting
        #: receiver becomes non-empty.
        self.wakeup_handler: Optional[Callable[[NiChannel], None]] = None

        self.rx_drops_fifo = 0
        self.rx_demuxed = 0
        self.rx_unmatched = 0
        self.host_interrupts = 0

    # ------------------------------------------------------------------
    def receive_frame(self, frame: Frame) -> None:
        self.rx_frames += 1
        # FIFO occupancy = frames admitted to the pipeline but not yet
        # classified; overflow is dropped by the NIC hardware (free to
        # the host, like all NI-side drops).
        if len(self._fifo) >= self.fifo_size:
            self.rx_drops_fifo += 1
            if self.sim.trace.enabled:
                self.sim.trace.pkt_drop("ni_fifo", flow_of(frame.packet),
                                        reason="fifo_full")
            return
        self._fifo.append(frame)
        start = max(self.sim.now, self._next_service)
        self._next_service = start + self.service_gap
        self.sim.schedule_at(start + self.demux_cost, self._demux_one)

    def _demux_one(self) -> None:
        """Firmware pipeline stage completion: classify one frame."""
        if not self._fifo:
            return
        frame = self._fifo.popleft()
        self._classify(frame)

    def _classify(self, frame: Frame) -> None:
        channel = self.table.demux(frame.packet)[1]
        if channel is None:
            self.rx_unmatched += 1
            if self.sim.trace.enabled:
                self.sim.trace.pkt_drop("ni_demux", flow_of(frame.packet),
                                        reason="unmatched")
            return
        was_empty = len(channel) == 0
        # A refused packet is an early discard at zero host cost.
        if enqueue(channel, frame.packet, self.sim.trace):
            self.rx_demuxed += 1
            self._on_enqueued(channel, was_empty)

    # ------------------------------------------------------------------
    # Wakeup scheduling (overridden by AgentNic)
    # ------------------------------------------------------------------
    def _on_enqueued(self, channel: NiChannel, was_empty: bool) -> None:
        """Wakeup-scheduling decision after a successful enqueue; the
        base NIC interrupts on every watched empty->non-empty
        transition (LRP's interrupt suppression, nothing more)."""
        if was_empty and channel.interrupts_requested:
            self._raise_host_interrupt(channel)

    def _raise_host_interrupt(self, channel: NiChannel) -> None:
        self.host_interrupts += 1
        if self.wakeup_handler is not None:
            self.wakeup_handler(channel)


#: AgentNic wakeup coalescing: interrupt once a channel holds this
#: many packets ...
WAKEUP_BATCH = 4
#: ... or this long after the first pending one, microseconds.
WAKEUP_DELAY_USEC = 40.0


class AgentNic(ProgrammableNic):
    """The NIC as an OS agent: firmware decides *when* the host runs,
    not just where a packet goes (the ETH Zurich position paper's
    direction).

    Instead of interrupting on every empty->non-empty transition, the
    firmware coalesces wakeups until a channel holds
    :data:`WAKEUP_BATCH` packets or :data:`WAKEUP_DELAY_USEC` has
    passed since the first pending one, trading bounded latency for
    fewer interrupts.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wakeup_events: dict = {}

    def _on_enqueued(self, channel: NiChannel, was_empty: bool) -> None:
        if not channel.interrupts_requested:
            return
        key = id(channel)
        pending = self._wakeup_events.get(key)
        if pending is not None:
            if len(channel) >= WAKEUP_BATCH:
                self.sim.cancel(pending)
                del self._wakeup_events[key]
                self._raise_host_interrupt(channel)
            return
        if not was_empty:
            # The host was already woken for this backlog and has not
            # drained it yet; no new wakeup is owed.
            return
        self._wakeup_events[key] = self.sim.schedule(
            WAKEUP_DELAY_USEC, self._deferred_wakeup, channel)

    def _deferred_wakeup(self, channel: NiChannel) -> None:
        self._wakeup_events.pop(id(channel), None)
        if len(channel) > 0 and channel.interrupts_requested:
            self._raise_host_interrupt(channel)
