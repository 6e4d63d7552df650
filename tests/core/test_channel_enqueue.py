"""SOFT-LRP's interrupt handler and NI-LRP's NIC firmware share one
NI-channel enqueue: an accepted packet traces ``pkt_enqueue`` and each
refusal cause traces its own ``pkt_drop`` reason."""

import pytest

from repro.core import Architecture
from repro.engine import Sleep, Syscall, World
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.udp import UdpDatagram
from repro.trace import CAT_PKT, Tracer
from repro.workloads import InjectorPort
from tests.helpers import SERVER

PORT = 9000


def arrange(channel, state):
    """Put *channel* in *state* before the next packet reaches it."""
    channel.stalled = state == "stalled"
    channel.processing_enabled = state != "disabled"
    if state == "full":
        channel.depth = len(channel)


@pytest.mark.parametrize("arch", [Architecture.SOFT_LRP,
                                  Architecture.NI_LRP],
                         ids=lambda arch: arch.value)
def test_each_channel_outcome_traced(arch):
    world = World(seed=1, tracer=Tracer(capacity=None))
    server = world.add_host(SERVER, arch)
    bound = []

    def receiver():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=PORT)
        bound.append(sock)
        yield Sleep(1e9)

    server.spawn("bound", receiver())
    injector = InjectorPort(world.sim, world.network, "10.0.0.9")

    def send(state):
        arrange(bound[0].channel, state)
        dgram = UdpDatagram(20000, PORT, payload_len=14)
        injector.send_packet(IpPacket(injector.addr, IPAddr(SERVER),
                                      IPPROTO_UDP, dgram, dgram.total_len))

    states = ("open", "stalled", "disabled", "full")
    for i, state in enumerate(states):
        world.sim.schedule(10_000.0 * (i + 1), send, state)
    world.run(60_000.0)
    outcomes = [(rec.etype, rec.args.get("reason"))
                for rec in world.sim.trace.records(cat=CAT_PKT)
                if rec.args.get("queue") == "ni_channel"]
    assert outcomes == [("pkt_enqueue", None),
                        ("pkt_drop", "stalled"),
                        ("pkt_drop", "disabled"),
                        ("pkt_drop", "early_discard")]
