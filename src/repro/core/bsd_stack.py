"""The 4.4BSD network subsystem (paper Section 2, Figure 1).

Receive path: the device interrupt captures the packet into an mbuf,
queues it on the *shared* IP queue and posts a software interrupt.  The
software interrupt — which outranks every process — performs IP input,
the PCB lookup, UDP/TCP input, and finally
queues the data on the destination socket, dropping it there if the
socket queue is full.  All of this is *eager*: it happens at packet
arrival time regardless of the receiver's state or priority, and its
CPU time is charged to whichever process happened to be running.

Every pathology in Section 2.2 is a consequence of this structure, and
all of them are reproduced mechanistically here: eager processing,
late packet drop, shared-queue traffic interference, mis-accounting.

RSS is this stack on a multi-queue NIC.  Each core keeps its own IP
queue and software interrupt, fed by the queue whose vector it owns,
so under overload one flow's livelock consumes only the cores its
packets hash to.  What changes is *where* receive work runs, not
*when*: it is still eager, at interrupt priority, and charged to
whatever was running on the interrupted core.  RSS buys isolation by
*spatial* separation where LRP buys it by *deferring* work to the
receiver's schedulable context.  With one core it is 4.4BSD exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

from repro.engine.process import Compute
from repro.host.interrupts import (
    HARDWARE,
    SOFTWARE,
    IntrTask,
    SimpleIntrTask,
)
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.core.stack_base import NetworkStack
from repro.sockets.socket import Socket
from repro.trace.tracer import flow_of

#: BSD IPQ length limit (ipintrq.ifq_maxlen, traditionally 50).
IPQ_MAXLEN = 50


class BsdStack(NetworkStack):
    """Conventional interrupt-driven architecture."""

    arch_name = "4.4BSD"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        ncores = self.kernel.ncores
        #: Per-core IP queues and softnet-posted flags, indexed by the
        #: core the receive interrupt arrived on.
        self.ipqs = [deque() for _ in range(ncores)]
        self._softnet_posted = [False] * ncores
        # The softnet path's fixed steps, allocated once: a Compute is
        # read, never changed, by the task that runs it.
        costs = self.costs
        self._sw_dispatch = Compute(costs.sw_intr_dispatch)
        self._ip_in = Compute(costs.ip_input)
        self._pcb_lookup = Compute(costs.pcb_lookup)
        self._udp_in = Compute(costs.udp_input + costs.socket_enqueue)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def rx_interrupt(self, frame: Frame, ring_release,
                     core: int) -> IntrTask:
        cpu = self.kernel.cpus[core]
        ipq = self.ipqs[core]

        def action() -> None:
            ring_release()
            trace = self.sim.trace
            chain = self.mbufs.try_allocate(frame.packet.total_len,
                                            frame.packet)
            if chain is None:
                self.stats.incr("drop_mbufs")
                if trace.enabled:
                    trace.pkt_drop("mbufs", flow_of(frame.packet),
                                   reason="pool_exhausted")
                return
            if len(ipq) >= IPQ_MAXLEN:
                # The shared-IP-queue drop: any flow can push out the
                # packets of any other flow on the same core.
                self.stats.incr("drop_ipq")
                if trace.enabled:
                    trace.pkt_drop("ipq", flow_of(frame.packet),
                                   reason="ipq_full")
                chain.free()
                return
            if trace.enabled:
                trace.pkt_enqueue("ipq", flow_of(frame.packet))
            frame.packet._mbuf_chain = chain
            ipq.append(frame.packet)
            if not self._softnet_posted[core]:
                self._softnet_posted[core] = True
                cpu.post(IntrTask(
                    self._softnet(core), SOFTWARE, "softnet"))

        return SimpleIntrTask(self.costs.hw_intr + self.costs.mbuf_alloc,
                              HARDWARE, "nic-rx", action=action)

    def _softnet(self, core: int) -> Generator:
        """The software-interrupt drain loop (ipintr) of one core."""
        ipq = self.ipqs[core]
        while ipq:
            packet = ipq.popleft()
            yield self._sw_dispatch
            yield from self._ip_input_eager(packet)
            chain = getattr(packet, "_mbuf_chain", None)
            if chain is not None:
                chain.free()
        self._softnet_posted[core] = False

    def _ip_input_eager(self, packet: IpPacket) -> Generator:
        """IP + transport input, in software-interrupt context."""
        yield self._ip_in
        self.stats.incr("ip_in")
        if not self.is_local_addr(packet.dst):
            # Transit packet: BSD forwards *in the software interrupt*,
            # at higher priority than any process and billed to the
            # interrupted bystander — the gateway pathology of
            # Section 2.3.
            if not self.forwarding_enabled:
                self.stats.incr("drop_not_local")
                return
            yield Compute(self.costs.ip_output)
            if packet.ttl <= 1:
                self.stats.incr("fwd_ttl_expired")
                return
            packet.ttl -= 1
            self.forward_packet(packet)
            self.stats.incr("ip_forwarded")
            return
        if packet.corrupt:
            yield from self.ip_input_checks(packet)
            return
        if packet.proto == IPPROTO_UDP:
            yield from self._udp_input_eager(packet)
        elif packet.proto == IPPROTO_TCP:
            yield from self._tcp_input_eager(packet)
        else:
            self.stats.incr("drop_unknown_proto")

    def _udp_input_eager(self, packet: IpPacket) -> Generator:
        yield self._pcb_lookup
        dgram = packet.transport
        sock: Optional[Socket] = self.udp_pcb.lookup(
            packet.dst, dgram.dst_port, packet.src, dgram.src_port)
        if sock is None:
            self.stats.incr("drop_pcb_miss")
            return
        yield self._udp_in
        self.udp_deliver_to_socket(sock, packet)

    def _tcp_input_eager(self, packet: IpPacket) -> Generator:
        yield self._pcb_lookup
        seg = packet.transport
        sock: Optional[Socket] = self.tcp_pcb.lookup(
            packet.dst, seg.dst_port, packet.src, seg.src_port)
        if sock is None:
            self.stats.incr("drop_tcp_pcb_miss")
            return
        yield from self.tcp_input_gen(sock, packet)


class RssStack(BsdStack):
    """4.4BSD on a multi-queue NIC (``build_host`` wires one receive
    queue per core); only the name differs."""

    arch_name = "RSS"
