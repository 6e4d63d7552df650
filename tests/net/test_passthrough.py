"""Pass-through switches: a two-link switch is a wire.

A port that feeds a two-link switch carries each frame straight out of
the switch's other port when the frame would find that port idle,
scheduling only the far-end arrival (``OutPort._pass_through``).  The
tests below pin where that path must not apply, and check it against
per-hop delivery (every switch arrival an event): a differential
property over frame sizes, spacings, bursts, exact ties and unequal
link rates, and whole runs whose trace record streams must match
record for record.
"""

import pytest

from repro.core import Architecture
from repro.engine.simulator import Simulator
from repro.experiments import cluster, figure3
from repro.faults import FaultPlan, FaultRule
from repro.faults.plane import FaultPlane
from repro.net.addr import IPAddr
from repro.net.ip import IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.net.topology import (
    BindingSpec,
    LinkSpec,
    SwitchSpec,
    Topology,
    TopologySpec,
    incast_client_addr,
    incast_spec,
    passthrough_spec,
)
from repro.net.udp import UdpDatagram
from repro.trace import golden
from repro.trace.tracer import CAT_ENGINE, Tracer, set_default_tracer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False

needs_hypothesis = pytest.mark.skipif(
    not HAVE_HYPOTHESIS, reason="hypothesis not installed")

SERVER = "10.0.0.1"
CLIENT = "10.0.0.2"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def per_hop(patch):
    """Make every switch arrival an event, as before wires."""
    patch.setattr(Topology, "pass_through_ports", lambda self: [])


def wired(patch):
    """Make every pass-through switch a wire, traced runs included."""
    init = Topology.__init__

    def build(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for feeder, out in self.pass_through_ports():
            feeder.wire = out

    patch.setattr(Topology, "__init__", build)


def count_arrivals(patch):
    """Count fired ``Topology._arrive`` events in a one-item list."""
    arrive = Topology._arrive
    fired = [0]

    def counted(self, *args):
        fired[0] += 1
        arrive(self, *args)

    patch.setattr(Topology, "_arrive", counted)
    return fired


class SinkNic:
    """Records every delivered frame with its arrival time."""

    def __init__(self, sim, log):
        self.sim = sim
        self.log = log

    def receive_frame(self, frame):
        self.log.append(("rx", self.sim.now,
                         frame.packet.transport.src_port))


def make_frame(src, index, wire_len=None):
    """Frame *index* from *src*, labelled by its source port."""
    dgram = UdpDatagram(20000 + index, 9000, payload_len=14)
    packet = IpPacket(IPAddr(src), IPAddr(SERVER), IPPROTO_UDP, dgram,
                      dgram.total_len)
    return Frame(packet, wire_len=wire_len)


# ----------------------------------------------------------------------
# Where the wire path must not apply
# ----------------------------------------------------------------------
def blast(spec, senders, fault_edge=None, traced=False):
    """Forty rounds of one frame per sender into the server; returns
    the delivery log and the ledger."""
    sim = Simulator(seed=1, tracer=Tracer() if traced else None)
    topo = spec.build(sim)
    log = []
    topo.attach(SinkNic(sim, log), SERVER)
    for addr in senders:
        topo.attach(SinkNic(sim, []), addr)
    if fault_edge is not None:
        plan = FaultPlan(seed=3, rules=(FaultRule(
            "link", "drop", probability=0.2, name="hop-loss"),))
        topo.attach_link_fault_plane(*fault_edge, FaultPlane(sim, plan))
    for i in range(40):
        for j, addr in enumerate(senders):
            sim.schedule_at(100.0 + 37.0 * i, topo.send,
                            make_frame(addr, 40 * j + i), addr)
    sim.run()
    return log, topo.conservation()


def figure3_point():
    """20 ms of blast: the injectors start at 50 ms."""
    return figure3.run_point(Architecture.SOFT_LRP, 20_000.0,
                             warmup_usec=0.0, window_usec=70_000.0)


def incast_point(shards):
    """An untraced one-client incast point, client0 — sw0 — server:
    at two shards the cut falls between sw0 and the server."""
    return cluster.run_incast_point(Architecture.SOFT_LRP, 1,
                                    rate_pps=20_000.0,
                                    duration_usec=30_000.0,
                                    warmup_usec=0.0, shards=shards)


def without_events(result):
    return {k: v for k, v in result.items() if k != "events"}


SCENARIOS = {
    "out-link fault plane": lambda: blast(
        passthrough_spec(), [CLIENT], fault_edge=("sw0", "server")),
    "three-link switch": lambda: blast(
        incast_spec(2), [incast_client_addr(0), incast_client_addr(1)]),
    "two-shard cut": lambda: incast_point(shards=2),
    "live tracer": lambda: blast(passthrough_spec(), [CLIENT],
                                 traced=True),
}


def arrivals_and_result(scenario, hop_by_hop):
    with pytest.MonkeyPatch.context() as patch:
        if hop_by_hop:
            per_hop(patch)
        fired = count_arrivals(patch)
        result = scenario()
    return fired[0], result


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_switch_arrivals_stay_events(name):
    assert arrivals_and_result(SCENARIOS[name], False) == \
        arrivals_and_result(SCENARIOS[name], True)


def test_pass_through_switch_halves_the_arrival_events():
    """The control for the cases above: untraced, unfaulted and
    unsharded, each frame is one arrival event, not two.  The incast
    point is the two-shard cut's scenario at one shard."""
    for scenario in (lambda: blast(passthrough_spec(), [CLIENT]),
                     lambda: without_events(figure3_point()),
                     lambda: without_events(incast_point(shards=1))):
        wire_arrivals, result = arrivals_and_result(scenario, False)
        hop_arrivals, reference = arrivals_and_result(scenario, True)
        assert result == reference
        assert 0 < 2 * wire_arrivals == hop_arrivals


#: (architecture, server cores, flows): the perfbench udp_blast shapes.
SHAPES = {
    Architecture.BSD: (1, 1),
    Architecture.NI_LRP: (1, 1),
    Architecture.SOFT_LRP: (1, 1),
    Architecture.EARLY_DEMUX: (1, 1),
    Architecture.RSS: (4, 4),
    Architecture.POLLING: (2, 2),
    Architecture.NIC_OS: (4, 4),
}


def traced(tracer, run):
    """Run *run* with *tracer* installed for every simulator it
    builds."""
    set_default_tracer(tracer)
    try:
        return run()
    finally:
        set_default_tracer(None)


def figure3_run(arch):
    cores, flows = SHAPES[arch]
    return lambda tracer: traced(tracer, lambda: figure3.run_point(
        arch, 20_000.0, warmup_usec=20_000.0, window_usec=100_000.0,
        seed=1, cores=cores, flows=flows))


@pytest.mark.parametrize("arch", list(SHAPES), ids=lambda a: a.value)
def test_figure3_point_is_the_same_traced(arch):
    """A traced point keeps every switch arrival an event, so it fires
    more events; apart from that count its results are the plain
    point's."""
    run = figure3_run(arch)
    plain, with_tracer = run(None), run(Tracer())
    assert without_events(with_tracer) == without_events(plain)
    assert with_tracer["events"] > plain["events"]


# ----------------------------------------------------------------------
# Differential: one switch, wire against per-hop, frame by frame
# ----------------------------------------------------------------------
def run_fabric(plan, in_rate, out_rate, in_prop, out_prop, queue, wire):
    """Replay *plan* through client — sw0 — server.

    Each step sends a burst of frames of the given wire sizes, then
    (or first) schedules the next step *units* half-microseconds plus
    *jitter* later.  Probes log the ledger, the switch queue's depth
    and its tail drops: at each frame's idle-path arrival and
    wire-free instants (ties the wire path must sort exactly), and on
    a half-microsecond grid for 32 us after each step.  With
    whole-microsecond frame times every probe lands on event
    instants.  Returns the
    log, every port's counters once the fabric drains, and the
    number of fired events.
    """
    sim = Simulator(seed=1)
    spec = TopologySpec(
        name="pair", switches=(SwitchSpec("sw0", queue_frames=queue),),
        links=(LinkSpec("client", "sw0", in_rate, in_prop),
               LinkSpec("sw0", "server", out_rate, out_prop)),
        bindings=(BindingSpec(SERVER, "server"),
                  BindingSpec(CLIENT, "client")))
    with pytest.MonkeyPatch.context() as patch:
        if not wire:
            per_hop(patch)
        topo = spec.build(sim)
    log = []
    topo.attach(SinkNic(sim, log), SERVER)
    topo.attach(SinkNic(sim, []), CLIENT)
    out = topo._ports[("sw0", "server")]
    labels = iter(range(10_000))

    def probe():
        log.append(("probe", sim.now, topo.conservation(),
                    len(out.queue), out.drops_overflow))

    def step(index):
        if index >= len(plan):
            return
        sizes, units, jitter, schedule_first = plan[index]

        def chain():
            sim.schedule(units * 0.5 + jitter, step, index + 1)

        if schedule_first:
            chain()
        for size in sizes:
            log.append(("tx", sim.now, topo.send(
                make_frame(CLIENT, next(labels), size), CLIENT)))
            arrive = sim.now + (size * 8.0 / in_rate + in_prop)
            tx_out = size * 8.0 / out_rate
            sim.schedule_at(arrive + (tx_out + out_prop), probe)
            sim.schedule_at(arrive + tx_out, probe)
        if not schedule_first:
            chain()
        for tick in range(1, 65):
            sim.schedule(tick * 0.5, probe)
        probe()

    sim.schedule(100.0, step, 0)
    sim.run()
    counters = [(port.enqueued, port.serviced, port.drops_overflow,
                 port.peak_depth, port.link.frames, port.busy)
                for port in topo._ports.values()]
    c = topo.conservation()
    assert c["in_flight"] == 0
    assert c["sent"] == c["delivered"] + c["drops_port_queue"]
    return log, counters, sim.events_processed


def assert_wire_matches_per_hop(plan, *fabric):
    got, got_counters, got_events = run_fabric(plan, *fabric, wire=True)
    want, want_counters, want_events = run_fabric(plan, *fabric,
                                                  wire=False)
    assert got == want
    assert got_counters == want_counters
    assert got_events <= want_events


#: Frames one frame time apart, a burst that queues at the switch and
#: tail-drops there (a 4 bit/us switch link behind an 8 bit/us access
#: link, two-frame queue), and idle gaps.  Sizes and rates give
#: whole-microsecond frame times, so arrivals, wire-free instants and
#: probes tie exactly.
TIE_PLAN = [((8,), 16, 0.0, True), ((8,), 16, 0.0, False),
            ((8, 8, 8, 8, 8), 0, 0.0, True), ((16,), 200, 0.5, False),
            ((8, 16), 8, 0.0, True), ((24,), 48, 0.0, False),
            ((8,), 32, 0.0, True), ((8, 8), 0, 0.0, False)]


def test_wire_matches_per_hop_on_ties_and_tail_drops():
    assert_wire_matches_per_hop(TIE_PLAN, 8.0, 4.0, 10.0, 3.0, 2)
    assert_wire_matches_per_hop(TIE_PLAN, 8.0, 8.0, 10.0, 10.0, 2)


def test_colliding_deferred_instants_match_per_hop():
    """Back to back on an 8 bit/us access link into a 16 bit/us switch
    link with 16 us of propagation, the second frame's wire-free
    instant is the first frame's far arrival while the first frame's
    switch arrival is still ahead, so the second frame arrives at the
    switch as an event.  A probe at that instant, scheduled before the
    first frame reaches the switch, must still see the first frame
    undelivered."""
    assert_wire_matches_per_hop([((16, 16, 16), 36, 0.0, True),
                                 ((), 0, 0.0, True)],
                                8.0, 16.0, 10.0, 16.0, 2)


if HAVE_HYPOTHESIS:
    steps = st.tuples(
        st.lists(st.sampled_from([8, 16, 24, 53]), max_size=4),
        st.integers(0, 64), st.sampled_from([0.0, 0.0, 0.0, 0.25]),
        st.booleans())
    rates = st.sampled_from([8.0, 4.0, 16.0, 155.52])
    props = st.sampled_from([10.0, 3.0, 0.5, 16.0])

    @needs_hypothesis
    @settings(max_examples=120, deadline=None)
    @given(plan=st.lists(steps, min_size=1, max_size=20),
           in_rate=rates, out_rate=rates, in_prop=props,
           out_prop=props, queue=st.integers(1, 4))
    def test_wire_matches_per_hop(plan, in_rate, out_rate, in_prop,
                                  out_prop, queue):
        assert_wire_matches_per_hop(plan, in_rate, out_rate, in_prop,
                                    out_prop, queue)


# ----------------------------------------------------------------------
# Whole runs: traced record streams, wire against per-hop
# ----------------------------------------------------------------------
def chain_run(tracer):
    golden.golden_world("cluster-chain", tracer).sim.run_until(
        golden.GOLDEN_DURATION)


def behaviour(run, wire):
    """The run's behaviour records, minus the switches' own
    ``pkt_enqueue`` records (a wire has none), and its result."""
    tracer = Tracer(capacity=None)
    with pytest.MonkeyPatch.context() as patch:
        if wire:
            wired(patch)
        result = run(tracer)
    records = [rec.canonical() for rec in tracer.records()
               if rec.cat != CAT_ENGINE
               and not (rec.etype == "pkt_enqueue"
                        and rec.args["queue"].startswith("sw."))]
    return records, result


WHOLE_RUNS = {arch.value: figure3_run(arch) for arch in SHAPES}
WHOLE_RUNS["cluster-chain"] = chain_run


@pytest.mark.parametrize("name", list(WHOLE_RUNS))
def test_wire_matches_per_hop_record_for_record(name):
    hop_records, hop_result = behaviour(WHOLE_RUNS[name], wire=False)
    wire_records, wire_result = behaviour(WHOLE_RUNS[name], wire=True)
    assert len(wire_records) == len(hop_records)
    assert wire_records == hop_records
    if hop_result is not None:
        assert without_events(wire_result) == without_events(hop_result)
