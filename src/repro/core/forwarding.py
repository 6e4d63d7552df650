"""IP forwarding: routed hosts and the LRP forwarding daemon.

The paper's Section 2.3 motivates LRP with "a packet filtering
application-level gateway, such as a firewall", and Section 3.5
prescribes the LRP treatment: "an IP forwarding daemon is charged for
CPU time spent on forwarding IP packets, and its priority controls
resources spent on IP forwarding.  The IP daemon competes with other
processes for CPU time."

Two placements of the forwarding work, mirroring the receive paths:

* **BSD / Early-Demux**: forwarding runs in the software interrupt (as
  in real BSD `ip_forward`), at higher priority than every process and
  billed to whoever was interrupted.  A forwarding flood therefore
  starves local applications.
* **LRP (soft or NI demux)**: packets whose destination is not a local
  address are demultiplexed onto the forwarding daemon's NI channel;
  the daemon forwards at its own scheduling priority and pays for the
  work.  Excess forwarding load is shed at the channel, and local
  applications keep their CPU shares.

:func:`enable_forwarding` wires either behaviour onto an existing
stack; :func:`build_gateway` constructs a two-interface host.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.engine.process import Block, Compute, WaitChannel
from repro.core.architecture import Architecture, Host
from repro.core.bsd_stack import BsdStack
from repro.core.ni_lrp import NiLrpStack
from repro.core.soft_lrp import SoftLrpStack
from repro.nic.channels import NiChannel


class ForwardingDaemon:
    """The LRP IP-forwarding proxy process (Section 3.5).

    "Processing for certain network packets cannot be directly
    attributed to any application process ... In LRP, this processing
    is charged to daemon processes that act as proxies for a
    particular protocol.  These daemons have an associated NI channel,
    and packets for such protocols are demultiplexed directly onto the
    corresponding channel."  Transit traffic is the one such class any
    reproduced experiment sends.

    The daemon competes for CPU like any process: its nice value is
    the administrator's knob for how much of the machine IP forwarding
    may consume.  Under overload its channel fills and the NI discards
    — the same early-discard feedback as data sockets.
    """

    def __init__(self, stack, nice: int = 0):
        self.stack = stack
        self.forwarded = 0
        self.dropped_ttl = 0
        self.channel = NiChannel("daemon-ipfwd", kind="daemon")
        self.channel.wait_channel = WaitChannel("daemon-ipfwd")
        stack.demux_table.forward_channel = self.channel
        self.proc = stack.kernel.spawn("ipfwdd", self._main(),
                                       nice=nice, working_set_kb=8.0)

    def _main(self) -> Generator:
        stack = self.stack
        channel = self.channel
        # IP input plus IP output per packet, in daemon context:
        # charged to the daemon, scheduled at the daemon's priority.
        step = Compute(stack.costs.ip_input + stack.costs.ip_output)
        while True:
            packet = channel.pop()
            if packet is None:
                channel.interrupts_requested = True
                yield Block(channel.wait_channel)
                continue
            yield step
            if packet.ttl <= 1:
                self.dropped_ttl += 1
                stack.stats.incr("fwd_ttl_expired")
                continue
            packet.ttl -= 1
            stack.forward_packet(packet)
            self.forwarded += 1
            stack.stats.incr("ip_forwarded")


def enable_forwarding(host: Host, nice: int = 0) -> \
        Optional[ForwardingDaemon]:
    """Turn *host* into a router.

    Returns the daemon for LRP stacks; ``None`` for 4.4BSD, whose
    forwarding runs inline in the software interrupt (real BSD
    ``ip_forward``).  Early-Demux gateways are not modelled — the
    paper's gateway discussion contrasts only the eager-BSD and
    LRP-daemon placements.
    """
    stack = host.stack
    if isinstance(stack, (SoftLrpStack, NiLrpStack)):
        stack.forwarding_enabled = True
        return ForwardingDaemon(stack, nice=nice)
    if isinstance(stack, BsdStack):
        stack.forwarding_enabled = True
        return None
    raise NotImplementedError(
        f"forwarding is not modelled for {stack.arch_name}")


def build_gateway(world, addr_a, addr_b,
                  arch: Architecture = Architecture.BSD,
                  nice: int = 0, **host_kwargs):
    """A host of *world* with two attachments that forwards between
    them (built by ``world.add_host``, which *host_kwargs* go to).

    Both attachment points live on the same switched LAN model; the
    gateway semantics come from *routing*: end hosts use the gateway
    as their next hop for the foreign subnet (``stack.set_gateway``),
    and the gateway re-emits those packets toward their true
    destination.
    """
    host = world.add_host(addr_a, arch, **host_kwargs)
    host.stack.add_interface_address(addr_b)
    daemon = enable_forwarding(host, nice=nice)
    return host, daemon
