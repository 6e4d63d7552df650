"""The topology test wall: switch invariants as properties.

The switch is the new moving part of the multi-host world, so its
contract is pinned two ways:

* **work conservation** — an output port never idles while frames are
  queued, so a backlogged port drains at exactly the link rate;
* **per-flow FIFO** — frames of one input flow are delivered in their
  injection order, drops included (tail drops thin a flow, never
  reorder it).

Each property has a concrete regression case so the invariants stay
covered on installs without hypothesis.
"""

import pytest

from repro.engine.simulator import Simulator
from repro.faults import FaultPlan, FaultRule
from repro.faults.plane import FaultPlane
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.net.topology import (
    BindingSpec,
    LinkSpec,
    OutPort,
    SwitchSpec,
    TopologySpec,
    gateway_chain_spec,
    incast_client_addr,
    incast_spec,
    passthrough_spec,
)
from repro.net.udp import UdpDatagram

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")

SERVER = "10.0.0.1"
PORT = 9000


class SinkNic:
    """Records every delivered frame with its arrival time."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []
        self.times = []

    def receive_frame(self, frame):
        self.frames.append(frame)
        self.times.append(self.sim.now)


def make_frame(src, dst=SERVER, src_port=20000, dst_port=PORT):
    dgram = UdpDatagram(src_port, dst_port, payload_len=14)
    packet = IpPacket(IPAddr(src), IPAddr(dst), IPPROTO_UDP, dgram,
                      dgram.total_len)
    return Frame(packet)


def build_incast(sim, fan_in, **spec_kwargs):
    """An incast world with sink NICs attached at every node."""
    topo = incast_spec(fan_in, **spec_kwargs).build(sim)
    server = SinkNic(sim)
    topo.attach(server, SERVER)
    for i in range(fan_in):
        topo.attach(SinkNic(sim), incast_client_addr(i))
    return topo, server


def assert_conserved(topo):
    c = topo.conservation()
    assert c["sent"] == (
        c["delivered"] + c["drops_no_route"] + c["drops_port_queue"]
        + c["drops_fault"] + c["in_flight"])


# ---------------------------------------------------------------------------
# Routing and spec validation
# ---------------------------------------------------------------------------

def test_passthrough_routes():
    topo = passthrough_spec().build(Simulator(seed=1))
    assert topo.routes["client"]["server"] == "sw0"
    assert topo.routes["server"]["client"] == "sw0"
    assert topo.forwarding_table("sw0") == {"client": "client",
                                            "server": "server"}


def test_gateway_chain_routes():
    topo = gateway_chain_spec().build(Simulator(seed=1))
    assert topo.forwarding_table("sw-edge") == {
        "client": "client", "gateway": "gateway", "backend": "gateway"}
    assert topo.forwarding_table("sw-core") == {
        "backend": "backend", "gateway": "gateway", "client": "gateway"}


def test_routes_deterministic_across_builds():
    specs = [incast_spec(4), gateway_chain_spec(), passthrough_spec()]
    for spec in specs:
        a = spec.build(Simulator(seed=1))
        b = spec.build(Simulator(seed=99))
        assert a.routes == b.routes  # graph decides, not the seed


def test_host_nodes_are_non_switch_endpoints():
    spec = gateway_chain_spec()
    assert set(spec.host_nodes()) == {"client", "gateway", "backend"}


def test_binding_to_switch_node_rejected():
    spec = TopologySpec(
        name="bad", switches=(SwitchSpec("sw0"),),
        links=(LinkSpec("h0", "sw0"),),
        bindings=(BindingSpec("10.0.0.1", "sw0"),))
    with pytest.raises(ValueError, match="not a host node"):
        spec.build(Simulator(seed=1))


def test_switch_without_links_rejected():
    spec = TopologySpec(
        name="bad", switches=(SwitchSpec("sw0"), SwitchSpec("lonely")),
        links=(LinkSpec("h0", "sw0"),))
    with pytest.raises(ValueError, match="no links"):
        spec.build(Simulator(seed=1))


def test_attach_requires_binding_and_uniqueness():
    sim = Simulator(seed=1)
    topo, _ = build_incast(sim, 1)
    with pytest.raises(ValueError, match="no binding"):
        topo.attach(SinkNic(sim), "10.9.9.9")
    with pytest.raises(ValueError, match="already attached"):
        topo.attach(SinkNic(sim), SERVER)


def test_send_to_unbound_destination_counts_no_route():
    sim = Simulator(seed=1)
    topo, _ = build_incast(sim, 1)
    ok = topo.send(make_frame(incast_client_addr(0), dst="10.9.9.9"),
                   incast_client_addr(0))
    assert not ok
    assert topo.drops_no_route == 1
    assert_conserved(topo)


# ---------------------------------------------------------------------------
# Work conservation
# ---------------------------------------------------------------------------

def run_burst(fan_in, bursts, **spec_kwargs):
    """Each client i injects ``bursts[i]`` frames at t=0; returns the
    drained world."""
    sim = Simulator(seed=7)
    topo, server = build_incast(sim, fan_in, **spec_kwargs)
    for i, burst in enumerate(bursts):
        for _ in range(burst):
            assert topo.send(make_frame(incast_client_addr(i),
                                        src_port=20000 + i),
                             incast_client_addr(i))
    sim.run_until(10_000_000.0)
    return topo, server


def check_work_conserving(fan_in, bursts):
    topo, server = run_burst(fan_in, bursts)
    n = sum(bursts)
    assert len(server.frames) == n
    assert topo.in_flight() == 0
    assert_conserved(topo)
    # A backlogged port never idles: the switch's uplink stays busy
    # from the first arrival to the last departure, so the last frame
    # lands at exactly (n + 1) serialization times plus two hops of
    # propagation (one access link, one switch link).
    tx = server.frames[0].wire_len * 8.0 / topo.bandwidth
    expected_last = (n + 1) * tx + 2 * topo.propagation
    assert server.times[-1] == pytest.approx(expected_last)
    port = topo.switches["sw0"].ports["server"]
    assert port.serviced == n
    assert not port.queue and not port.busy


def test_work_conservation_concrete():
    check_work_conserving(3, [5, 2, 7])


if HAVE_HYPOTHESIS:

    @needs_hypothesis
    @settings(max_examples=25, deadline=None)
    @given(bursts=st.lists(st.integers(min_value=1, max_value=8),
                           min_size=1, max_size=4))
    def test_work_conservation(bursts):
        check_work_conserving(len(bursts), bursts)


# ---------------------------------------------------------------------------
# Per-flow FIFO under contention and tail drop
# ---------------------------------------------------------------------------

def run_contended(bursts, **spec_kwargs):
    """Concurrent bursts into a tiny switch queue; returns per-flow
    delivered sequence numbers and the topology."""
    fan_in = len(bursts)
    sim = Simulator(seed=7)
    topo, server = build_incast(sim, fan_in, **spec_kwargs)
    tags = {}
    for i, burst in enumerate(bursts):
        for seq in range(burst):
            frame = make_frame(incast_client_addr(i), src_port=20000 + i)
            tags[id(frame)] = (i, seq)
            assert topo.send(frame, incast_client_addr(i))
    sim.run_until(10_000_000.0)
    delivered = [tags[id(f)] for f in server.frames]
    per_flow = {i: [seq for flow, seq in delivered if flow == i]
                for i in range(fan_in)}
    return per_flow, topo


def check_fifo_per_flow(bursts):
    per_flow, topo = run_contended(bursts, queue_frames=4)
    assert topo.in_flight() == 0
    assert_conserved(topo)
    total = sum(len(seqs) for seqs in per_flow.values())
    assert total + topo.drops_port_queue == sum(bursts)
    for seqs in per_flow.values():
        # Delivery thins each flow but never reorders it.
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))


def test_fifo_per_flow_concrete():
    check_fifo_per_flow([10, 10, 10])


def test_uncontended_flow_arrives_complete_and_in_order():
    per_flow, topo = run_contended([6], queue_frames=4)
    assert per_flow[0] == list(range(6))
    assert topo.total_drops() == 0


if HAVE_HYPOTHESIS:

    @needs_hypothesis
    @settings(max_examples=25, deadline=None)
    @given(bursts=st.lists(st.integers(min_value=1, max_value=12),
                           min_size=2, max_size=4))
    def test_fifo_per_flow(bursts):
        check_fifo_per_flow(bursts)


# ---------------------------------------------------------------------------
# One pass per hop: the inline path against the queue-always reference
# ---------------------------------------------------------------------------

CLIENT = "10.0.0.2"


def queue_always_enqueue(port, frame, dst_key):
    """OutPort.enqueue with no inline path: every frame is appended to
    the queue and an idle port serves it at once through _service."""
    if len(port.queue) >= port.capacity:
        port.drops_overflow += 1
        port.topology._count_drop("port_queue", frame)
        return False
    port.enqueued += 1
    port.queue.append((frame, dst_key))
    port.peak_depth = max(port.peak_depth, len(port.queue))
    free = port._free
    if free is not None:
        port._free = None
        if not port.topology.sim.claim(free, port._service):
            port._busy = False
    if not port._busy:
        port._busy = True
        port._service()
    return True


def run_hops(times, burst, loss=0.0):
    """Send *burst* frames client → sw0 → server at each of *times*;
    with *loss*, the client's link drops that share of its frames.
    Returns arrivals, per-port counters and ``busy`` probes taken
    half a frame time into each send, at the instant the wire frees
    and half a frame time later.  The switch is a hop, not a wire, so
    each frame passes through ``enqueue`` at both ports."""
    sim = Simulator(seed=1)
    topo = passthrough_spec().build(sim)
    for feeder, _ in topo.pass_through_ports():
        feeder.wire = None
    server = SinkNic(sim)
    topo.attach(server, SERVER)
    topo.attach(SinkNic(sim), CLIENT)
    if loss:
        plan = FaultPlan(seed=3, rules=(FaultRule(
            "link", "drop", probability=loss, name="hop-loss"),))
        topo.attach_link_fault_plane("client", "sw0",
                                     FaultPlane(sim, plan))
    ports = [topo._ports[("client", "sw0")], topo._ports[("sw0", "server")]]
    tx = make_frame(CLIENT).wire_len * 8.0 / topo.bandwidth
    probes = []
    sent = iter(range(10_000))

    def send():
        for _ in range(burst):
            # Each frame is labelled by its source port.
            topo.send(make_frame(CLIENT, src_port=next(sent)), CLIENT)

    def probe():
        probes.append((sim.now, [port.busy for port in ports]))

    for t in times:
        sim.schedule_at(t, send)
        for offset in (0.5, burst, burst + 0.5):
            sim.schedule_at(t + offset * tx, probe)
    sim.run_until(max(times) + 100 * tx + 1_000.0)
    assert_conserved(topo)
    return {
        "arrivals": [(t, f.packet.transport.src_port)
                     for t, f in zip(server.times, server.frames)],
        "ports": [(p.enqueued, p.serviced, p.peak_depth, p.link.frames,
                   p.link.drops_fault, p.busy) for p in ports],
        "probes": probes,
        "events": sim.events_processed,
    }


def assert_inline_matches_queue_always(times, burst, loss=0.0):
    inline = run_hops(times, burst, loss)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OutPort, "enqueue", queue_always_enqueue)
        reference = run_hops(times, burst, loss)
    assert inline == reference
    return inline


def frame_time():
    return make_frame(CLIENT).wire_len * 8.0 / passthrough_spec().build(
        Simulator()).bandwidth


def test_spaced_frames_take_the_inline_path_unchanged():
    """Frames spaced wider than the transmit time find every port idle
    and empty, so each hop is one pass through enqueue."""
    tx = frame_time()
    got = assert_inline_matches_queue_always(
        [100.0 + 3 * tx * i for i in range(8)], burst=1)
    assert len(got["arrivals"]) == 8
    assert [p[:4] for p in got["ports"]] == [(8, 8, 1, 8)] * 2
    # The access port is busy half a frame into each send and at the
    # instant its wire frees (the probe was scheduled first), and free
    # half a frame later.
    client = [busy[0] for _, busy in got["probes"]]
    assert client == [True, True, False] * 8


def test_back_to_back_frames_queue_unchanged():
    """A burst queues behind the access wire and reaches the switch
    port exactly as its wire frees: the reserved-key ties."""
    tx = frame_time()
    got = assert_inline_matches_queue_always([100.0, 100.0 + 20 * tx],
                                             burst=5)
    assert [t for t, _ in got["arrivals"]] == sorted(
        t for t, _ in got["arrivals"])
    assert [i for _, i in got["arrivals"]] == list(range(10))
    # The first frame of each burst goes straight onto the wire.
    assert got["ports"][0][:4] == (10, 10, 4, 10)


def test_link_fault_drop_on_the_inline_path():
    """A frame the link drops still holds the wire for its transmit
    time, inline or not."""
    tx = frame_time()
    got = assert_inline_matches_queue_always(
        [100.0 + 3 * tx * i for i in range(16)], burst=1, loss=0.5)
    dropped = got["ports"][0][4]
    assert 0 < dropped < 16
    assert len(got["arrivals"]) == 16 - dropped
    assert all(busy[0] for _, busy in got["probes"][0::3])
