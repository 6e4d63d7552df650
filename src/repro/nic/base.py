"""Common NIC machinery: the driver interface queue and send path,
and the adaptor-level admission of frames into a host receive ring.

Every NIC model shares the BSD driver structure on the transmit side:
packets the stack emits go to a bounded *interface queue* and drain at
wire speed ("the resulting IP packets are then transmitted, or — if
the interface is currently busy — placed in the driver's interface
queue").
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import Network
from repro.net.packet import Frame
from repro.trace.tracer import flow_of

#: BSD IFQ_MAXLEN.
IFQ_MAXLEN = 50


class BaseNic:
    """Transmit path and attachment plumbing shared by NIC models."""

    def __init__(self, sim: Simulator, network: Network, addr: IPAddr,
                 ifq_maxlen: int = IFQ_MAXLEN):
        self.sim = sim
        self.network = network
        self.addr = IPAddr(addr)
        self.ifq: Deque[Frame] = deque()
        self.ifq_maxlen = ifq_maxlen
        self._tx_busy = False
        #: Reserved key of the "wire free" event not scheduled because
        #: the ifq was empty (see _tx_next), or None.
        self._tx_free = None
        network.attach(self, self.addr)

        self.tx_frames = 0
        self.tx_drops_ifq = 0
        self.rx_frames = 0
        self.rx_drops_ring = 0

    # ------------------------------------------------------------------
    # Transmit side
    # ------------------------------------------------------------------
    def transmit(self, frame: Frame) -> bool:
        """Queue *frame* for transmission; False if the ifq was full."""
        trace = self.sim.trace
        if len(self.ifq) >= self.ifq_maxlen:
            self.tx_drops_ifq += 1
            if trace.enabled:
                trace.pkt_drop("ifq", flow_of(frame.packet),
                               reason="ifq_full")
            return False
        if trace.enabled:
            trace.pkt_enqueue("ifq", flow_of(frame.packet))
        self.ifq.append(frame)
        free = self._tx_free
        if free is not None:
            # Schedule the service at the reserved wire-free key if
            # it is still ahead; otherwise the wire is free already.
            self._tx_free = None
            if not self.sim.claim(free, self._tx_next):
                self._tx_busy = False
        if not self._tx_busy:
            self._tx_next()
        return True

    def _tx_next(self) -> None:
        """Put the head of the (non-empty) ifq on the wire.

        The next service is scheduled when the wire frees only if a
        frame is waiting.  Otherwise the wire-free event would just
        mark the NIC idle, so only its key is reserved, and
        :meth:`transmit` schedules it under that key if a frame comes
        first — the eager schedule, without its idle events.
        """
        self._tx_busy = True
        frame = self.ifq.popleft()
        self.tx_frames += 1
        self.network.send(frame, self.addr)
        tx_time = frame.wire_len * 8.0 / self.network.bandwidth
        if self.ifq:
            self.sim.schedule(tx_time, self._tx_next)
        else:
            self._tx_free = self.sim.reserve(self.sim.now + tx_time)

    # ------------------------------------------------------------------
    # Receive side (implemented by subclasses)
    # ------------------------------------------------------------------
    def receive_frame(self, frame: Frame) -> None:  # pragma: no cover
        raise NotImplementedError

    def _rx_admit(self, frame: Frame, ring_used: int) -> bool:
        """Count an arriving frame and admit it to a host DMA ring that
        holds *ring_used* of the subclass's ``rx_ring_size`` frames.
        A full ring drops it at the ``rx_ring`` stage before any host
        CPU is spent."""
        self.rx_frames += 1
        if ring_used < self.rx_ring_size:
            return True
        self.rx_drops_ring += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.pkt_drop("rx_ring", flow_of(frame.packet),
                           reason="ring_full")
        return False
