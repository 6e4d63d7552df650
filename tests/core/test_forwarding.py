"""Tests for IP forwarding: routed delivery, the LRP forwarding
daemon, and the BSD gateway pathology (Sections 2.3 and 3.5)."""

import pytest

from repro.core import Architecture, build_host
from repro.core.forwarding import build_gateway, enable_forwarding
from repro.engine import Compute, Simulator, Sleep, Syscall, World
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.link import Network
from repro.net.udp import UdpDatagram
from repro.workloads import InjectorPort, RawUdpInjector

GW_A = "10.0.0.254"      # gateway's address on subnet 10.0.0/24
GW_B = "10.0.1.254"      # gateway's address on subnet 10.0.1/24
LEFT = "10.0.0.2"        # host on the left subnet
RIGHT = "10.0.1.2"       # host on the right subnet


def build_world(gw_arch, seed=1):
    world = World(seed=seed)
    sim, net = world.sim, world.network
    gateway, daemon = build_gateway(world, GW_A, GW_B, gw_arch)
    left = world.add_host(LEFT, Architecture.BSD)
    right = world.add_host(RIGHT, Architecture.BSD)
    left.stack.set_gateway(GW_A)
    right.stack.set_gateway(GW_B)
    return sim, net, gateway, daemon, left, right


@pytest.mark.parametrize("gw_arch", (Architecture.BSD,
                                     Architecture.SOFT_LRP,
                                     Architecture.NI_LRP),
                         ids=lambda a: a.value)
def test_cross_subnet_udp_roundtrip(gw_arch):
    sim, net, gateway, daemon, left, right = build_world(gw_arch)
    log = []

    def server():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
            log.append((str(src.addr), dgram.payload_len))
            yield Syscall("sendto", sock=sock, nbytes=4,
                          addr=src.addr, port=src.port)

    replies = []

    def client():
        yield Sleep(10_000.0)
        sock = yield Syscall("socket", stype="udp")
        for _ in range(5):
            yield Syscall("sendto", sock=sock, nbytes=14,
                          addr=RIGHT, port=9000)
            dgram, src, stamp = yield Syscall("recvfrom", sock=sock)
            replies.append(dgram.payload_len)

    right.spawn("server", server())
    left.spawn("client", client())
    sim.run_until(500_000.0)
    assert log == [(LEFT, 14)] * 5
    assert replies == [4] * 5
    assert gateway.stack.stats.get("ip_forwarded") == 10  # both ways


def test_bsd_forwarding_runs_in_software_interrupt():
    sim, net, gateway, daemon, left, right = build_world(
        Architecture.BSD)
    assert daemon is None
    sink = []

    def server():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)
            sink.append(sim.now)

    def bystander():
        while True:
            yield Compute(1_000.0)

    right.spawn("server", server())
    victim = gateway.spawn("bystander", bystander())
    injector = RawUdpInjector(sim, net, "10.0.0.77", RIGHT, 9000,
                              next_hop=GW_A)
    sim.schedule(20_000.0, injector.start, 4_000)
    sim.run_until(500_000.0)
    assert gateway.stack.stats.get("ip_forwarded") > 1_000
    # The bystander on the gateway paid for the forwarding interrupts.
    assert victim.intr_time_charged > 20_000.0


def test_lrp_forwarding_charged_to_daemon():
    sim, net, gateway, daemon, left, right = build_world(
        Architecture.SOFT_LRP)
    assert daemon is not None
    sink = []

    def server():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            yield Syscall("recvfrom", sock=sock)
            sink.append(sim.now)

    def bystander():
        while True:
            yield Compute(1_000.0)

    right.spawn("server", server())
    victim = gateway.spawn("bystander", bystander())
    injector = RawUdpInjector(sim, net, "10.0.0.77", RIGHT, 9000,
                              next_hop=GW_A)
    sim.schedule(20_000.0, injector.start, 4_000)
    sim.run_until(500_000.0)
    assert daemon.forwarded > 1_000
    # The daemon paid for the forwarding proper; the bystander is
    # billed only the (soft) demux interrupt time, which is the
    # smaller share.
    assert daemon.proc.cpu_time > victim.intr_time_charged * 1.5


def test_lrp_daemon_priority_caps_forwarding_share():
    """Section 3.5: 'its priority controls resources spent on IP
    forwarding.'  A niced daemon forwards less under contention."""
    rates = {}
    for nice in (0, 20):
        world = World(seed=2)
        sim, net = world.sim, world.network
        gateway, daemon = build_gateway(world, GW_A, GW_B,
                                        Architecture.SOFT_LRP,
                                        nice=nice)
        left = world.add_host(LEFT, Architecture.BSD)
        right = world.add_host(RIGHT, Architecture.BSD)
        left.stack.set_gateway(GW_A)
        right.stack.set_gateway(GW_B)

        def hog():
            while True:
                yield Compute(1_000.0)

        gateway.spawn("hog", hog())
        injector = RawUdpInjector(sim, net, "10.0.0.77", RIGHT, 9000,
                                  next_hop=GW_A)
        sim.schedule(20_000.0, injector.start, 15_000)
        sim.run_until(600_000.0)
        rates[nice] = daemon.forwarded
    assert rates[0] > rates[20]


def test_lrp_forwarding_overload_sheds_at_channel():
    sim, net, gateway, daemon, left, right = build_world(
        Architecture.SOFT_LRP)

    def hog():
        while True:
            yield Compute(1_000.0)

    gateway.spawn("hog", hog())
    gateway.spawn("hog2", hog())
    injector = RawUdpInjector(sim, net, "10.0.0.77", RIGHT, 9000,
                              next_hop=GW_A)
    sim.schedule(20_000.0, injector.start, 18_000)
    sim.run_until(600_000.0)
    assert daemon.channel.total_discards() > 500


def test_ttl_expiry_drops_transit_packets():
    sim, net, gateway, daemon, left, right = build_world(
        Architecture.SOFT_LRP)
    from repro.net.packet import Frame

    port = InjectorPort(sim, net, "10.0.0.99")
    dgram = UdpDatagram(1, 9000, payload_len=14)
    packet = IpPacket(port.addr, RIGHT, IPPROTO_UDP, dgram,
                      dgram.total_len, ttl=1)
    packet.stamp = 0.0
    net.send(Frame(packet, link_dst=GW_A), port.addr)
    sim.run_until(100_000.0)
    assert daemon.dropped_ttl == 1
    assert gateway.stack.stats.get("fwd_ttl_expired") == 1


def test_forwarding_unsupported_for_early_demux():
    sim = Simulator(seed=1)
    net = Network(sim)
    host = build_host(sim, net, GW_A, Architecture.EARLY_DEMUX)
    with pytest.raises(NotImplementedError):
        enable_forwarding(host)


# -- The daemon on both demux placements --------------------------------
# The forwarding daemon is woken by the soft demux's channel routing on
# SOFT-LRP and by the NIC's wakeup interrupt on NI-LRP.

LRP_ARCHS = (Architecture.SOFT_LRP, Architecture.NI_LRP)


def transit_world(gw_arch, nice=0):
    """A gateway between two bare injector ports: a sender on the left
    subnet and a sink on the right one."""
    world = World(seed=1)
    sim, net = world.sim, world.network
    gateway, daemon = build_gateway(world, GW_A, GW_B, gw_arch,
                                    nice=nice)
    return (sim, gateway, daemon, InjectorPort(sim, net, "10.0.0.9"),
            InjectorPort(sim, net, "10.0.1.9"))


def send_transit(sender, sink):
    dgram = UdpDatagram(20000, 9000, payload_len=14)
    sender.send_packet(IpPacket(sender.addr, sink.addr, IPPROTO_UDP,
                                dgram, dgram.total_len), link_dst=GW_A)


def hog():
    while True:
        yield Compute(1_000.0)


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_daemon_forwards_each_transit_packet(arch):
    sim, gateway, daemon, sender, sink = transit_world(arch)
    for i in range(5):
        sim.schedule(10_000.0 + i * 1_000.0, send_transit, sender, sink)
    sim.run_until(200_000.0)
    assert daemon.forwarded == 5
    assert sink.frames_received == 5


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_daemon_charged_for_processing(arch):
    sim, gateway, daemon, sender, sink = transit_world(arch)
    for i in range(20):
        sim.schedule(10_000.0 + i * 500.0, send_transit, sender, sink)
    sim.run_until(300_000.0)
    costs = gateway.stack.costs
    assert daemon.forwarded == 20
    assert daemon.proc.cpu_time >= 20 * (costs.ip_input + costs.ip_output)


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_daemon_channel_overload_sheds_early(arch):
    sim, gateway, daemon, sender, sink = transit_world(arch, nice=20)
    gateway.spawn("hog", hog())
    for i in range(500):
        sim.schedule(10_000.0 + i * 50.0, send_transit, sender, sink)
    sim.run_until(100_000.0)
    assert daemon.channel.total_discards() > 0


@pytest.mark.parametrize("arch", LRP_ARCHS, ids=lambda a: a.value)
def test_daemon_priority_controls_share(arch):
    """The administrator's knob: a niced daemon forwards fewer packets
    under CPU contention."""
    forwarded = {}
    for nice in (0, 20):
        sim, gateway, daemon, sender, sink = transit_world(arch, nice)
        gateway.spawn("hog", hog())
        for i in range(2000):
            sim.schedule(10_000.0 + i * 100.0, send_transit, sender,
                         sink)
        sim.run_until(300_000.0)
        forwarded[nice] = daemon.forwarded
    assert forwarded[0] > forwarded[20]
