"""Differential tests: each eager receive stage as one CPU slice,
against the per-step eager input it replaced.

4.4BSD's softnet (and RSS's, which is 4.4BSD per core), Early-Demux's
per-packet software interrupt and the polling stack's poll loop decide
a packet's outcome first and charge the steps it takes as one
``Compute``.  The per-step input they replaced, one ``Compute`` per
step with the outcome decided as the steps run, is kept below as the
*oracle* and monkeypatched in.  The two must agree on everything but
the slice count and the engine events it costs: behaviour digests,
experiment outputs, counters, drop records and each core's time by
class and idle time.  Billed time is compared as of the clock, the
slice in progress included: a stage still running when a run stops
has billed none of its steps yet, where the per-step input had billed
those it finished, so ``core_usage``, which reports billed time only,
is left out of the outputs compared.  Where the clock is not a whole
number of microseconds, one sum of a stage's steps can end a slice an
ulp away from the steps added one by one, so the longer benchmark
points compare CPU times to float rounding.

RSS's exception is the interrupt cache pollution.  A slice end lands
pollution on the cache model all cores share, so one fused slice
evicts at once what the per-step slices evicted in pieces, and an
application on another core that resumes between those pieces repays
a different refill.  RSS is compared exactly with pollution off, and
with it on at the benchmark's RSS point, on every output but its idle
time.
"""

from contextlib import contextmanager

import pytest

from repro.core import Architecture
from repro.core.bsd_stack import BsdStack
from repro.core.early_demux import EarlyDemuxStack
from repro.core.polling_stack import POLL_BURST, POLL_IDLE_USEC, \
    PollingStack
from repro.engine import Compute, Syscall, World
from repro.engine import world as world_module
from repro.experiments import figure3
from repro.host.costs import DEFAULT_COSTS
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.tcp import SYN, TcpSegment
from repro.net.udp import UdpDatagram
from repro.trace import golden
from repro.trace.tracer import Tracer
from repro.workloads.sources import InjectorPort
from tests.experiments.test_cost_gate import SHAPES
from tests.integration.test_perfbench_pins import points as bench


# ----------------------------------------------------------------------
# The oracle: the per-step eager input
# ----------------------------------------------------------------------
def per_step_softnet(self, core):
    ipq = self.ipqs[core]
    while ipq:
        packet = ipq.popleft()
        yield Compute(self.costs.sw_intr_dispatch)
        yield from per_step_ip_input(self, packet)
        chain = getattr(packet, "_mbuf_chain", None)
        if chain is not None:
            chain.free()
    self._softnet_posted[core] = False


def per_step_ip_input(self, packet):
    costs = self.costs
    yield Compute(costs.ip_input)
    self.stats.incr("ip_in")
    if not self.is_local_addr(packet.dst):
        if not self.forwarding_enabled:
            self.stats.incr("drop_not_local")
            return
        yield Compute(costs.ip_output)
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
        yield Compute(costs.pcb_lookup)
        dgram = packet.transport
        sock = self.udp_pcb.lookup(packet.dst, dgram.dst_port,
                                   packet.src, dgram.src_port)
        if sock is None:
            self.stats.incr("drop_pcb_miss")
            return
        yield Compute(costs.udp_input + costs.socket_enqueue)
        self.udp_deliver_to_socket(sock, packet)
    elif packet.proto == IPPROTO_TCP:
        yield Compute(costs.pcb_lookup)
        seg = packet.transport
        sock = self.tcp_pcb.lookup(packet.dst, seg.dst_port,
                                   packet.src, seg.src_port)
        if sock is None:
            self.stats.incr("drop_tcp_pcb_miss")
            return
        yield from self.tcp_input_gen(sock, packet)
    else:
        self.stats.incr("drop_unknown_proto")


def per_step_poll_main(self):
    dequeue = Compute(self.costs.dequeue)
    idle_poll = Compute(POLL_IDLE_USEC)
    while True:
        burst = self.nic.poll_burst(POLL_BURST)
        for frame in burst:
            yield dequeue
            yield from per_step_ip_input(self, frame.packet)
        while self._tcp_work:
            sock, kind = self._tcp_work.popleft()
            yield dequeue
            yield from self.tcp_timer_gen(sock, kind)
        if not burst:
            yield idle_poll


def per_step_early_demux_input(self, packet):
    costs = self.costs
    yield Compute(costs.sw_intr_dispatch + costs.ip_input)
    self.stats.incr("ip_in")
    if packet.corrupt:
        yield from self.ip_input_checks(packet)
        return
    if packet.proto == IPPROTO_UDP:
        dgram = packet.transport
        sock = self.udp_pcb.lookup(packet.dst, dgram.dst_port,
                                   packet.src, dgram.src_port)
        if sock is None:
            self.stats.incr("drop_pcb_miss")
            return
        yield Compute(costs.udp_input + costs.socket_enqueue)
        self.udp_deliver_to_socket(sock, packet)
    elif packet.proto == IPPROTO_TCP:
        seg = packet.transport
        sock = self.tcp_pcb.lookup(packet.dst, seg.dst_port,
                                   packet.src, seg.src_port)
        if sock is None:
            self.stats.incr("drop_tcp_pcb_miss")
            return
        yield from self.tcp_input_gen(sock, packet)


@contextmanager
def per_step():
    """Run the per-step eager input instead of the fused one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(BsdStack, "_softnet", per_step_softnet)
        patch.setattr(PollingStack, "_poll_main", per_step_poll_main)
        patch.setattr(EarlyDemuxStack, "_eager_input",
                      per_step_early_demux_input)
        yield


@contextmanager
def capturing_worlds(costs):
    """Collect every World that gets a host inside, with the shared cost
    model's constants overridden by *costs* meanwhile.  (Hooked on
    ``add_host``, which no benchmark instrumentation wraps.)"""
    worlds = []
    add_host = world_module.World.add_host

    def capture(world, *args, **kwargs):
        if world not in worlds:
            worlds.append(world)
        return add_host(world, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(world_module.World, "add_host", capture)
        for name, value in costs.items():
            patch.setattr(DEFAULT_COSTS, name, value)
        yield worlds


def cpu_times(worlds):
    """Each core's time by class as of the clock, and its idle time.
    Slice counts are what the fusion changes, so they are left out."""
    times = []
    for world in worlds:
        for host in world.hosts:
            for cpu in host.kernel.cpus:
                by_class = dict(cpu.time_by_class)
                if cpu.current is not None:
                    by_class[cpu.current.work_class] += \
                        world.sim.now - cpu._slice_start
                times.append((by_class, cpu.idle_time))
    return times


def both(run, **costs):
    """``(result, cpu times)`` of *run()* fused, then per-step."""
    sides = []
    for patched in (False, True):
        with capturing_worlds(costs) as worlds:
            if patched:
                with per_step():
                    result = run()
            else:
                result = run()
        assert worlds
        sides.append((result, cpu_times(worlds)))
    return sides


#: Outputs the fusion may move: engine events, and billed time that
#: leaves out a slice in progress (compared by :func:`cpu_times`).
FUSION_MOVES = ("events", "core_usage")
#: Outputs that move as well where the billed sums differ: under RSS's
#: interrupt cache pollution, or with costs that are not whole
#: microseconds.
IDLE_MOVES = FUSION_MOVES + ("cpu_idle",)


def without(point, keys):
    return {k: v for k, v in point.items() if k not in keys}


def assert_within_ulps(fused_cpu, oracle_cpu):
    """CPU times equal to float rounding: where a stage's steps add to
    a clock that is not whole microseconds, their one sum can round a
    slice end by an ulp."""
    assert len(fused_cpu) == len(oracle_cpu)
    for (f_class, f_idle), (o_class, o_idle) in zip(fused_cpu,
                                                    oracle_cpu):
        assert f_class == pytest.approx(o_class, rel=1e-12)
        assert f_idle == pytest.approx(o_idle, rel=1e-12)


# ----------------------------------------------------------------------
# Tier 1: every golden workload and every cost-gate point
# ----------------------------------------------------------------------
def golden_behaviour(key):
    tracer = Tracer(capacity=None)
    world = golden.golden_world(key, tracer)
    world.run(golden.GOLDEN_DURATION)
    digest = tracer.digest()
    digest.pop("engine_events")
    return digest


@pytest.mark.parametrize("key", golden.GOLDEN_ARCHES)
def test_golden_workloads_match_per_step(key):
    (fused, fused_cpu), (oracle, oracle_cpu) = both(
        lambda: golden_behaviour(key))
    assert fused == oracle
    assert fused_cpu == oracle_cpu


def cost_gate_point(arch):
    cores, flows = SHAPES[arch]
    return figure3.run_point(arch, 20_000.0, warmup_usec=20_000.0,
                             window_usec=60_000.0, seed=1, cores=cores,
                             flows=flows)


@pytest.mark.parametrize("arch", [a for a in SHAPES
                                  if a is not Architecture.RSS],
                         ids=lambda a: a.value)
def test_cost_gate_points_match_per_step(arch):
    (fused, fused_cpu), (oracle, oracle_cpu) = both(
        lambda: cost_gate_point(arch))
    assert without(fused, FUSION_MOVES) == without(oracle, FUSION_MOVES)
    assert fused_cpu == oracle_cpu


def test_rss_matches_per_step_without_cache_pollution():
    (fused, fused_cpu), (oracle, oracle_cpu) = both(
        lambda: cost_gate_point(Architecture.RSS),
        intr_pollution_kb_per_usec=0.0)
    assert without(fused, FUSION_MOVES) == without(oracle, FUSION_MOVES)
    assert fused_cpu == oracle_cpu
    # With pollution on, the same point's idle time moves.
    (fused, _), (oracle, _) = both(
        lambda: cost_gate_point(Architecture.RSS))
    assert fused["cpu_idle"] != oracle["cpu_idle"]


@pytest.mark.parametrize("arch", [Architecture.BSD,
                                  Architecture.EARLY_DEMUX],
                         ids=lambda a: a.value)
def test_non_integer_costs_match_per_step(arch):
    """Costs that are not whole microseconds: the fused sums round
    differently from the per-step ones, by a few ulps, and no outcome
    moves."""
    (fused, fused_cpu), (oracle, oracle_cpu) = both(
        lambda: cost_gate_point(arch),
        ip_input=DEFAULT_COSTS.ip_input * 1.3,
        udp_input=DEFAULT_COSTS.udp_input * 0.7,
        sw_intr_dispatch=DEFAULT_COSTS.sw_intr_dispatch * 1.1)
    assert without(fused, IDLE_MOVES) == without(oracle, IDLE_MOVES)
    assert_within_ulps(fused_cpu, oracle_cpu)


# ----------------------------------------------------------------------
# Fallback outcomes: every way a packet leaves the eager input early
# ----------------------------------------------------------------------
SERVER = "10.0.0.1"
SOURCE = "10.0.0.9"
BOUND_PORT = 9000


def fallback_run(arch, cores):
    """A bound UDP sink on *arch*, fed one mixed burst after another:
    datagrams for the sink, a PCB miss, a corrupt datagram, transit
    packets with and without TTL left, an unknown protocol and a TCP
    segment for no connection.  Bursts arrive faster than softnet
    drains them, so hardware interrupts preempt its slices.  Returns
    the server's counters and drop records."""
    tracer = Tracer(capacity=None)
    world = World(seed=3, tracer=tracer)
    server = world.add_host(SERVER, arch, cores=cores)
    # Routes transit packets, though none of them reach a host.
    server.stack.forwarding_enabled = True
    port = InjectorPort(world.sim, world.network, SOURCE)

    def sink():
        sock = yield Syscall("socket", stype="udp")
        yield Syscall("bind", sock=sock, port=BOUND_PORT)
        while True:
            yield Syscall("recvfrom", sock=sock)

    server.spawn("sink", sink())

    def udp(dst_port, dst=SERVER, corrupt=False, ttl=64, proto=None):
        dgram = UdpDatagram(20000 + dst_port % 7, dst_port,
                            payload_len=14)
        packet = IpPacket(SOURCE, dst, proto or IPPROTO_UDP, dgram,
                          dgram.total_len, ttl=ttl)
        packet.corrupt = corrupt
        return packet

    def tcp_stray():
        seg = TcpSegment(40000, 7777, seq=1, flags=SYN)
        return IpPacket(SOURCE, SERVER, IPPROTO_TCP, seg, seg.total_len)

    burst = [
        lambda: udp(BOUND_PORT),
        lambda: udp(12345),
        lambda: udp(BOUND_PORT, corrupt=True),
        lambda: udp(BOUND_PORT, dst="10.0.5.5", ttl=1),
        lambda: udp(BOUND_PORT, dst="10.0.5.5"),
        lambda: udp(BOUND_PORT, proto=99),
        tcp_stray,
        lambda: udp(BOUND_PORT),
    ]
    for round_no in range(40):
        for i, make in enumerate(burst):
            world.sim.schedule(10_000.0 + round_no * 700.0 + i * 13.0,
                               lambda make=make: port.send_packet(
                                   make(), link_dst=SERVER))
    world.run(60_000.0)
    drops = [(rec.t, rec.args) for rec in tracer.records(etype="pkt_drop")]
    return server.stack.stats.as_dict(), drops


@pytest.mark.parametrize("arch, cores", [
    (Architecture.BSD, 1),
    (Architecture.EARLY_DEMUX, 1),
    (Architecture.RSS, 2),
    (Architecture.POLLING, 2),
], ids=lambda v: getattr(v, "value", v))
def test_fallback_outcomes_match_per_step(arch, cores):
    (fused, fused_cpu), (oracle, oracle_cpu) = both(
        lambda: fallback_run(arch, cores))
    stats, drops = fused
    assert stats == oracle[0]
    assert drops == oracle[1]
    assert fused_cpu == oracle_cpu
    if arch is not Architecture.EARLY_DEMUX:
        # Every outcome was taken (Early-Demux's demux turns most of
        # them away before its software interrupt).
        for counter in ("drop_pcb_miss", "drop_corrupt",
                        "fwd_ttl_expired", "ip_forwarded",
                        "drop_unknown_proto", "drop_tcp_pcb_miss"):
            assert stats.get(counter, 0) > 0, counter


# ----------------------------------------------------------------------
# Slow: every udp_blast and tcp_http benchmark point
# ----------------------------------------------------------------------
BENCH_POINTS = [point for workload in ("udp_blast", "tcp_http")
                for point in bench.WORKLOADS[workload](bench.DEFAULT_SEED)]


@pytest.mark.slow
@pytest.mark.parametrize("point", BENCH_POINTS, ids=lambda p: p.name)
def test_benchmark_points_match_per_step(point):
    (fused, fused_cpu), (oracle, oracle_cpu) = both(point.call)
    if point.kwargs.get("arch") is Architecture.RSS:
        assert without(fused, IDLE_MOVES) \
            == without(oracle, IDLE_MOVES)
        return
    assert without(fused, FUSION_MOVES) == without(oracle, FUSION_MOVES)
    assert_within_ulps(fused_cpu, oracle_cpu)
