"""A conventional network adaptor: DMA rings + interrupt per packet.

Used by the 4.4BSD, Early-Demux and SOFT-LRP kernels ("in the case of
network adaptors that lack the necessary support ... the demultiplexing
function can be performed in the network driver's interrupt handler").
The NIC itself does no classification: every received frame raises a
host hardware interrupt whose body is supplied by the attached network
stack.

The paper's adaptors have one receive queue.  Its modern descendant,
the RSS NIC, has N: each ring has its own interrupt vector wired to
the core of the same index, and a seeded Toeplitz hash over the flow
4-tuple steers every frame to one ring.  Interrupt and protocol-input
load then spreads across the cores while a flow's packets stay in
order on one of them.  The steering picks a core, not a socket —
coarser than LRP's demux (see docs/ARCHITECTURES.md).
"""

from __future__ import annotations

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import Network
from repro.net.packet import Frame
from repro.nic.base import BaseNic
from repro.nic.demux import RssHasher
from repro.trace.tracer import flow_of

#: Receive DMA ring size per queue, frames.
DEFAULT_RX_RING = 64


class SimpleNic(BaseNic):
    """Interrupt-per-packet NIC with *queues* receive rings.

    The attached stack must provide ``rx_interrupt(frame, ring_release,
    core)`` returning an :class:`~repro.host.interrupts.IntrTask` to
    post on core *core*'s CPU, or ``None`` to drop silently.  Each DMA
    ring bounds how many frames can be awaiting interrupt service;
    overflow drops are counted as ``rx_drops_ring`` (these happen only
    when interrupt processing itself cannot keep up, i.e. deep
    livelock).
    """

    def __init__(self, sim: Simulator, network: Network, addr: IPAddr,
                 queues: int = 1,
                 rx_ring_size: int = DEFAULT_RX_RING, **base_kwargs):
        super().__init__(sim, network, addr, **base_kwargs)
        if queues < 1:
            raise ValueError(f"need at least one queue, got {queues}")
        self.queues = queues
        self.hasher = RssHasher()
        self.rx_ring_size = rx_ring_size
        self.rx_ring_used = [0] * queues
        self.stack = None  # installed by the scenario builder
        self._releases = [self._make_release(q) for q in range(queues)]

    def _make_release(self, queue: int):
        """The callback the stack runs when the interrupt handler has
        consumed a frame out of ring *queue*."""
        def release() -> None:
            self.rx_ring_used[queue] -= 1
        return release

    def receive_frame(self, frame: Frame) -> None:
        queue = self.hasher.queue_for(frame.packet, self.queues)
        if not self._rx_admit(frame, self.rx_ring_used[queue]):
            return
        trace = self.sim.trace
        stack = self.stack
        if stack is None:
            self.rx_drops_ring += 1
            if trace.enabled:
                trace.pkt_drop("rx_ring", flow_of(frame.packet),
                               reason="no_stack")
            return
        task = stack.rx_interrupt(frame, self._releases[queue], queue)
        if task is None:
            return
        if trace.enabled:
            trace.pkt_enqueue("rx_ring", flow_of(frame.packet))
        self.rx_ring_used[queue] += 1
        stack.kernel.cpus[queue].post(task)
