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
from typing import Generator, NamedTuple, Optional

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


class StageSlices(NamedTuple):
    """An eager receive stage's slices, allocated once: its lead step
    and IP input (``ip``), then IP output (``transit``), the PCB lookup
    (``lookup``: a UDP miss, or a TCP segment up to its own input), or
    the lookup, UDP input and socket enqueue (``deliver``)."""

    ip: Compute
    transit: Compute
    lookup: Compute
    deliver: Compute

    @classmethod
    def after(cls, lead: float, costs) -> "StageSlices":
        ip = lead + costs.ip_input
        lookup = ip + costs.pcb_lookup
        return cls(Compute(ip), Compute(ip + costs.ip_output),
                   Compute(lookup), Compute(lookup + costs.udp_input
                                            + costs.socket_enqueue))


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
        self._softnet_slices = StageSlices.after(
            self.costs.sw_intr_dispatch, self.costs)

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
        slices = self._softnet_slices
        while ipq:
            packet = ipq.popleft()
            yield from self._eager_input(packet, slices)
            chain = getattr(packet, "_mbuf_chain", None)
            if chain is not None:
                chain.free()
        self._softnet_posted[core] = False

    def _eager_input(self, packet: IpPacket,
                     slices: StageSlices) -> Generator:
        """IP and transport input of one packet as one slice, from the
        stage's lead step on.  The outcome is decided first, from the
        packet, the address and forwarding configuration and the UDP
        PCB table (only a process binds or closes, and none runs on
        this core meanwhile); the slice charges the steps it takes and
        the outcome applies at its end.  A TCP segment's input reads
        connection state that timers change, so its slice ends at the
        PCB lookup and the input follows in its own steps."""
        proto = packet.proto
        local = self.is_local_addr(packet.dst)
        sock: Optional[Socket] = None
        if not local:
            stage = slices.transit if self.forwarding_enabled else slices.ip
        elif packet.corrupt or proto not in (IPPROTO_UDP, IPPROTO_TCP):
            stage = slices.ip
        elif proto == IPPROTO_TCP:
            stage = slices.lookup
        else:
            dgram = packet.transport
            sock = self.udp_pcb.lookup(packet.dst, dgram.dst_port,
                                       packet.src, dgram.src_port)
            stage = slices.lookup if sock is None else slices.deliver
        yield stage
        stats = self.stats
        stats.incr("ip_in")
        if sock is not None:
            self.udp_deliver_to_socket(sock, packet)
        elif not local:
            # Transit packet: BSD forwards *in the software interrupt*,
            # at higher priority than any process and billed to the
            # interrupted bystander — the gateway pathology of
            # Section 2.3.
            if not self.forwarding_enabled:
                stats.incr("drop_not_local")
            elif packet.ttl <= 1:
                stats.incr("fwd_ttl_expired")
            else:
                packet.ttl -= 1
                self.forward_packet(packet)
                stats.incr("ip_forwarded")
        elif packet.corrupt:
            # A per-byte cost, not whole microseconds: its own slice,
            # so the billed sums round as the per-step ones do.
            yield from self.ip_input_checks(packet)
        elif proto == IPPROTO_UDP:
            stats.incr("drop_pcb_miss")
        elif proto == IPPROTO_TCP:
            seg = packet.transport
            sock = self.tcp_pcb.lookup(packet.dst, seg.dst_port,
                                       packet.src, seg.src_port)
            if sock is None:
                stats.incr("drop_tcp_pcb_miss")
                return
            yield from self.tcp_input_gen(sock, packet)
        else:
            stats.incr("drop_unknown_proto")


class RssStack(BsdStack):
    """4.4BSD on a multi-queue NIC (``build_host`` wires one receive
    queue per core); only the name differs."""

    arch_name = "RSS"
