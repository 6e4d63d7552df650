"""Protocol daemon proxies (paper Section 3.5).

"Processing for certain network packets cannot be directly attributed
to any application process ... In LRP, this processing is charged to
daemon processes that act as proxies for a particular protocol.  These
daemons have an associated NI channel, and packets for such protocols
are demultiplexed directly onto the corresponding channel."

The daemon competes for CPU like any process: its nice value is the
administrator's knob for how much of the machine ICMP handling (or IP
forwarding) may consume.  Under overload its channel fills and the NI
discards — the same early-discard feedback as data sockets.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.engine.process import Block, Compute, WaitChannel
from repro.net.ip import IpPacket
from repro.nic.channels import NiChannel
from repro.proto.icmp import IcmpMessage, make_reply


class ProtocolDaemon:
    """A proxy process owning one protocol's NI channel."""

    #: Cost-model fields charged per packet, before :meth:`_step`.
    step_costs = ("ip_input", "udp_input")

    def __init__(self, stack, ip_proto: Optional[int], name: str,
                 handler: Optional[Callable[[IpPacket],
                                            Optional[IcmpMessage]]] = None,
                 nice: int = 0):
        self.stack = stack
        self.ip_proto = ip_proto
        self.name = name
        self.handler = handler if handler is not None else self._default
        self.channel = NiChannel(f"daemon-{name}", kind="daemon")
        self.channel.wait_channel = WaitChannel(f"daemon-{name}")
        self._register()
        self.processed = 0
        self.proc = stack.kernel.spawn(f"{name}d", self._main(),
                                       nice=nice, working_set_kb=8.0)

    def _register(self) -> None:
        """Route the protocol's packets onto the daemon's channel."""
        self.stack.demux_table.register_daemon(self.ip_proto, self.channel)

    def _default(self, packet: IpPacket) -> Optional[IcmpMessage]:
        """Default behaviour: answer ICMP echo requests."""
        transport = packet.transport
        if isinstance(transport, IcmpMessage):
            return make_reply(transport)
        return None

    def _main(self) -> Generator:
        stack = self.stack
        channel = self.channel
        cost = sum(getattr(stack.costs, field) for field in self.step_costs)
        while True:
            packet = channel.pop()
            if packet is None:
                channel.interrupts_requested = True
                yield Block(channel.wait_channel)
                continue
            # Protocol processing in daemon context: charged to the
            # daemon, scheduled at the daemon's priority.
            yield Compute(cost)
            reply = self._step(packet)
            if reply is not None:
                yield Compute(stack.costs.ip_output)
                stack.ip_output(reply, packet.src, self.ip_proto,
                                reply.total_len)
                stack.stats.incr(f"daemon_{self.name}_out")

    def _step(self, packet: IpPacket) -> Optional[IcmpMessage]:
        """Process one packet; returns a reply to send, or None."""
        self.processed += 1
        self.stack.stats.incr(f"daemon_{self.name}_in")
        return self.handler(packet)
