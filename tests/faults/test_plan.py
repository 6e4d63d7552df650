"""Fault plan/plane unit behaviour: validation, windows, determinism."""

import pytest

from repro.engine import Simulator
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.net.udp import UdpDatagram
from repro.core import Architecture
from repro.experiments.common import SERVER_ADDR, Testbed


def _frame(dst_port=9000):
    dgram = UdpDatagram(20000, dst_port, payload_len=14)
    packet = IpPacket("10.0.0.2", "10.0.0.1", IPPROTO_UDP, dgram,
                      dgram.total_len)
    return Frame(packet)


# ----------------------------------------------------------------------
# Plan validation
# ----------------------------------------------------------------------
def test_unknown_layer_rejected():
    with pytest.raises(ValueError):
        FaultRule("transport", "drop")


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        FaultRule("link", "exhaust")


@pytest.mark.parametrize("layer,kind", [
    ("link", "duplicate"), ("link", "delay"), ("link", "jitter"),
    ("nic", "misclassify")])
def test_removed_kinds_rejected(layer, kind):
    with pytest.raises(ValueError, match="fault kind"):
        FaultRule(layer, kind)


def test_probability_bounds_rejected():
    with pytest.raises(ValueError):
        FaultRule("link", "drop", probability=1.5)


def test_inverted_window_rejected():
    with pytest.raises(ValueError):
        FaultRule("link", "drop", start_usec=100.0, end_usec=50.0)


def test_rule_window_semantics():
    rule = FaultRule("link", "drop", start_usec=10.0, end_usec=20.0)
    assert not rule.active(9.9)
    assert rule.active(10.0)
    assert rule.active(19.9)
    assert not rule.active(20.0)
    open_ended = FaultRule("link", "drop", start_usec=10.0)
    assert open_ended.active(1e12)


def test_plan_layer_rules_keep_plan_order():
    plan = FaultPlan(seed=1, rules=[
        FaultRule("nic", "stall"),
        FaultRule("link", "drop"),
        FaultRule("link", "corrupt"),
    ])
    assert [i for i, _ in plan.layer_rules("link")] == [1, 2]
    assert not plan.empty
    assert FaultPlan().empty


# ----------------------------------------------------------------------
# Plane determinism
# ----------------------------------------------------------------------
def _dispositions(seed, n=200):
    """Per frame: dropped, corrupted."""
    sim = Simulator(seed=7)
    plan = FaultPlan(seed=seed, rules=[
        FaultRule("link", "drop", probability=0.3),
        FaultRule("link", "corrupt", probability=0.5),
    ])
    plane = FaultPlane(sim, plan)
    out = []
    for _ in range(n):
        frame = _frame()
        drop = plane.link_disposition(frame)
        out.append((drop, frame.packet.corrupt))
    return out


def test_same_plan_seed_same_decisions():
    assert _dispositions(11) == _dispositions(11)


def test_different_plan_seed_different_decisions():
    assert _dispositions(11) != _dispositions(12)


def test_rule_filters_gate_matching():
    sim = Simulator(seed=7)
    plane = FaultPlane(sim, FaultPlan(seed=1, rules=[
        FaultRule("link", "drop", dst_port=7100)]))
    assert not plane.link_disposition(_frame(dst_port=9000))
    assert plane.link_disposition(_frame(dst_port=7100))
    assert plane.counters.get("link_drop") == 1
    assert plane.injected_total() == 1


def test_corrupt_marks_packet_and_counts():
    sim = Simulator(seed=7)
    plane = FaultPlane(sim, FaultPlan(seed=1, rules=[
        FaultRule("link", "corrupt")]))
    frame = _frame()
    assert not plane.link_disposition(frame)
    assert frame.packet.corrupt
    assert plane.snapshot() == {"link_corrupt": 1}


# ----------------------------------------------------------------------
# Scheduled windows (via a real host)
# ----------------------------------------------------------------------
def test_mbuf_exhaust_window_reserves_and_releases():
    plan = FaultPlan(seed=1, rules=[
        FaultRule("mbuf", "exhaust", start_usec=1_000.0,
                  end_usec=2_000.0, magnitude=100)])
    bed = Testbed(seed=1, fault_plan=plan)
    host = bed.add_host(SERVER_ADDR, Architecture.BSD)
    pool = host.stack.mbufs
    baseline = pool.available
    bed.run(500.0)
    assert pool.fault_reserved == 0
    bed.run(1_500.0)
    assert pool.fault_reserved == 100
    assert pool.available == baseline - 100
    bed.run(2_500.0)
    assert pool.fault_reserved == 0
    assert pool.available == baseline


def test_nic_stall_window_toggles_channels(arch=Architecture.NI_LRP):
    from repro.engine import Syscall

    plan = FaultPlan(seed=1, rules=[
        FaultRule("nic", "stall", start_usec=10_000.0,
                  end_usec=20_000.0, dst_port=9000)])
    bed = Testbed(seed=1, fault_plan=plan)
    host = bed.add_host(SERVER_ADDR, arch)

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        yield Syscall("recvfrom", sock=sock)

    host.spawn("sink", sink())

    def stalled_channels():
        return [c for c in host.stack.iter_channels() if c.stalled]

    bed.run(5_000.0)
    assert not stalled_channels()
    bed.run(15_000.0)
    stalled = stalled_channels()
    assert len(stalled) == 1
    owner = stalled[0].owner_socket
    assert owner is not None and owner.local.port == 9000
    bed.run(25_000.0)
    assert not stalled_channels()


def test_port_stall_leaves_a_bsd_nic_admitting():
    """A stall acts on NI channels only; 4.4BSD has none, so its NIC
    keeps admitting frames for the stalled port."""
    from repro.engine import Syscall
    from repro.experiments.common import CLIENT_A_ADDR
    from repro.workloads import RawUdpInjector

    plan = FaultPlan(seed=1, rules=[
        FaultRule("nic", "stall", start_usec=0.0, end_usec=50_000.0,
                  dst_port=9000)])
    bed = Testbed(seed=1, fault_plan=plan)
    host = bed.add_host(SERVER_ADDR, Architecture.BSD)
    received = []

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=9000)
        while True:
            received.append((yield Syscall("recvfrom", sock=sock)))

    host.spawn("sink", sink())
    blaster = RawUdpInjector(bed.sim, bed.network, CLIENT_A_ADDR,
                             SERVER_ADDR, 9000)
    blaster.start(1_000.0)
    bed.run(30_000.0)
    blaster.stop()
    bed.run(45_000.0)
    assert bed.fault_plane.counters.get("nic_stall_on") == 1
    assert blaster.sent > 0
    assert host.nic.rx_frames == len(received) == blaster.sent
    assert host.nic.rx_drops_ring == 0


def test_stalled_channel_counts_discards_separately():
    from repro.nic.channels import NiChannel

    chan = NiChannel("t", depth=2)
    chan.stalled = True
    assert not chan.offer("pkt")
    chan.stalled = False
    assert chan.offer("pkt")
    assert chan.discards_by_cause() == {
        "full": 0, "disabled": 0, "stalled": 1, "total": 1}
    assert chan.total_discards() == 1
