"""Early-Demux: early demultiplexing *without* lazy processing.

The control kernel of Figure 3 and the Section 3 design argument:
"early demultiplexing by itself is not sufficient to provide stability
and fairness under overload."  This kernel demultiplexes in the
interrupt handler (like SOFT-LRP), drops packets whose destination
socket's receive queue is full (early discard), and otherwise
*eagerly* schedules a software interrupt that performs the protocol
processing at higher-than-any-process priority with BSD accounting —
exactly eager receiver processing minus the PCB lookup.

Its weaknesses, which the experiments expose: eager per-packet
software interrupts still preempt and bill the wrong process, and
packets that never enter a socket queue (control packets, corrupted
packets) provide no back-pressure signal at all, so floods of them
livelock the system just as they do under BSD.
"""

from __future__ import annotations

from typing import Generator

from repro.engine.process import Compute
from repro.host.interrupts import (
    HARDWARE,
    SOFTWARE,
    IntrTask,
    SimpleIntrTask,
)
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.core.lrp_base import LrpStackBase
from repro.core.stack_base import NetworkStack
from repro.sockets.socket import DGRAM, Socket
from repro.trace.tracer import flow_of


class EarlyDemuxStack(LrpStackBase):
    """Early demultiplexing with eager protocol processing."""

    arch_name = "Early-Demux"

    #: Receive syscalls only drain the socket queue, and asynchronous
    #: TCP work runs in software interrupts: plain BSD semantics.
    recv_dgram_gen = NetworkStack.recv_dgram_gen
    post_tcp_work = NetworkStack.post_tcp_work

    #: No idle thread, no APP process: processing is eager, never
    #: deferred, exactly as in BSD.
    lazy = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # The eager input's fixed slices, allocated once.
        costs = self.costs
        self._dispatch_ip_in = Compute(costs.sw_intr_dispatch
                                       + costs.ip_input)
        self._udp_deliver = Compute(self._dispatch_ip_in.usec
                                    + costs.udp_input
                                    + costs.socket_enqueue)

    def listener_backlog_changed(self, listener: Socket) -> None:
        """No LRP backlog feedback: SYNs for over-backlog listeners
        are still processed eagerly and dropped late, as in BSD."""

    # ------------------------------------------------------------------
    def rx_interrupt(self, frame: Frame, ring_release,
                     core: int) -> IntrTask:
        cpu = self.kernel.cpus[core]

        def hw_action() -> None:
            ring_release()
            channel = self.soft_demux(frame.packet)
            if channel is None:
                return
            sock = channel.owner_socket
            if (sock is not None and sock.stype == DGRAM
                    and sock.rcv_dgrams is not None
                    and sock.rcv_dgrams.full()):
                # Early packet discard — but note: only works for
                # packets that would have entered a data queue.
                self.stats.incr("drop_early_sockq_full")
                channel.discarded_full += 1
                if self.sim.trace.enabled:
                    self.sim.trace.pkt_drop("sockq", flow_of(frame.packet),
                                            reason="early_sockq_full")
                return
            cpu.post(IntrTask(self._eager_input(frame.packet), SOFTWARE,
                              "early-demux-input"))

        return SimpleIntrTask(self.costs.hw_intr + self.costs.soft_demux,
                              HARDWARE, "rx-demux", action=hw_action)

    def _eager_input(self, packet: IpPacket) -> Generator:
        """Per-packet software interrupt: BSD processing minus the PCB
        lookup (the demux already identified the endpoint).  As in
        BSD's softnet, a datagram's input is one slice, decided before
        it is charged, and a TCP segment's input follows its lead."""
        sock = None
        if packet.proto == IPPROTO_UDP and not packet.corrupt:
            dgram = packet.transport
            sock = self.udp_pcb.lookup(packet.dst, dgram.dst_port,
                                       packet.src, dgram.src_port)
        yield self._dispatch_ip_in if sock is None else self._udp_deliver
        stats = self.stats
        stats.incr("ip_in")
        if packet.corrupt:
            # A per-byte cost: its own slice, as in BSD's softnet.
            yield from self.ip_input_checks(packet)
        elif sock is not None:
            self.udp_deliver_to_socket(sock, packet)
        elif packet.proto == IPPROTO_UDP:
            stats.incr("drop_pcb_miss")
        elif packet.proto == IPPROTO_TCP:
            seg = packet.transport
            sock = self.tcp_pcb.lookup(packet.dst, seg.dst_port,
                                       packet.src, seg.src_port)
            if sock is None:
                stats.incr("drop_tcp_pcb_miss")
                return
            yield from self.tcp_input_gen(sock, packet)
