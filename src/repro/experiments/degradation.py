"""Graceful degradation under injected faults and adversarial load.

The paper argues that LRP's gains matter most when the network is
hostile: under overload the conventional stack spends its CPU on
traffic it will discard, while LRP sheds the same traffic before any
protocol processing.  This experiment family stresses that claim with
the deterministic fault plane (:mod:`repro.faults`): a well-behaved
*victim* UDP flow shares a server with a bursty blaster while a
seeded :class:`~repro.faults.plan.FaultPlan` injects link loss,
corruption, NIC stalls and mbuf-pool exhaustion in a mid-run window.

Swept over fault *intensity* in [0, 1] and architecture, each point
reports the victim's goodput, its one-way latency tail, and how long
after the fault window closes the victim returns to (90% of) its
pre-window delivery rate.  A second sweep drives a TCP transfer
through a lossy, corrupting window and verifies every architecture
still delivers the complete byte stream — loss triggers
retransmission/RTO backoff; corrupt segments are dropped at input as
``drop_corrupt`` and recovered the same way.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core import MODERN_ARCHES, Architecture
from repro.engine.process import Sleep, Syscall
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.ip import IPPROTO_TCP
from repro.net.topology import (
    BindingSpec,
    LinkSpec,
    SwitchSpec,
    TopologySpec,
)
from repro.apps import udp_blast_sink
from repro.stats.metrics import LatencyRecorder
from repro.stats.report import (
    channel_discard_summary,
    format_series,
    format_table,
)
from repro.workloads import BurstyUdpBlaster, RawUdpInjector
from repro.experiments.common import (
    CLIENT_A_ADDR,
    CLIENT_C_ADDR,
    MAIN_SYSTEMS,
    SERVER_ADDR,
    Section,
    Testbed,
    by_arch,
    json_num,
)

VICTIM_PORT = 7100
BLAST_PORT = 9100

#: The victim's offered rate: modest, easily served by every
#: architecture when nothing is going wrong.
VICTIM_PPS = 2000.0
#: Blaster rate ramps from base to base+extra with fault intensity.
BLAST_BASE_PPS = 4000.0
BLAST_EXTRA_PPS = 16000.0

DEFAULT_INTENSITIES = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Recovery is measured in bins of this width (µs).  At
#: :data:`VICTIM_PPS` a bin holds 10 victim packets, the fewest for
#: which 90% of the baseline is still a meaningful count.
RECOVERY_BIN_USEC = 5_000.0


def degradation_spec() -> TopologySpec:
    """The degradation star: victim and blaster share one switch into
    the server — the flat testbed with its three attachment points
    made explicit, so each sender's access edge can carry a fault
    plane of its own."""
    return TopologySpec(
        name="degradation-star",
        switches=(SwitchSpec("sw0"),),
        links=(LinkSpec("victim", "sw0"),
               LinkSpec("blaster", "sw0"),
               LinkSpec("sw0", "server")),
        bindings=(BindingSpec(SERVER_ADDR, "server"),
                  BindingSpec(CLIENT_A_ADDR, "victim"),
                  BindingSpec(CLIENT_C_ADDR, "blaster")))


def edge_fault_plan(intensity: float, duration_usec: float,
                    seed: int) -> Optional[FaultPlan]:
    """The wire half of the canonical degradation plan: link loss and
    corruption over the mid-run window [0.35, 0.55] of the
    duration.  One instance attaches per sender access edge (with a
    per-edge seed), so each client's fault draws are a pure function
    of its own frame sequence.  ``None`` at intensity 0.
    """
    if intensity <= 0:
        return None
    w0, w1 = 0.35 * duration_usec, 0.55 * duration_usec
    return FaultPlan(seed=seed, rules=(
        FaultRule("link", "drop", start_usec=w0, end_usec=w1,
                  probability=0.25 * intensity, name="loss-burst"),
        FaultRule("link", "corrupt", start_usec=w0, end_usec=w1,
                  probability=0.15 * intensity, name="corrupt-burst"),
    ))


def host_fault_plan(intensity: float, duration_usec: float,
                    seed: int) -> Optional[FaultPlan]:
    """The receiver half of the plan: a NIC stall on the blast port
    inside the window plus an mbuf-pool squeeze across it.  Stall and
    exhaust rules schedule their window edges at plane construction,
    so the plane is built just before the server host it attaches to.
    ``None`` at intensity 0.
    """
    if intensity <= 0:
        return None
    w0, w1 = 0.35 * duration_usec, 0.55 * duration_usec
    return FaultPlan(seed=seed, rules=(
        FaultRule("nic", "stall", start_usec=0.40 * duration_usec,
                  end_usec=0.45 * duration_usec, dst_port=BLAST_PORT,
                  name="blast-stall"),
        FaultRule("mbuf", "exhaust", start_usec=w0, end_usec=w1,
                  magnitude=int(4064 * intensity), name="mbuf-squeeze"),
    ))


def _recovery_usec(stamps: Sequence[float], window_end: float,
                   duration_usec: float,
                   baseline_pps: float) -> Optional[float]:
    """Time from the fault window's close until the end of the first
    :data:`RECOVERY_BIN_USEC` bin whose delivery rate reaches 90% of
    the pre-window baseline; ``None`` if the victim never recovers
    within the run."""
    if baseline_pps <= 0:
        return None
    need = 0.9 * baseline_pps * RECOVERY_BIN_USEC / 1e6
    start = window_end
    while start + RECOVERY_BIN_USEC <= duration_usec:
        end = start + RECOVERY_BIN_USEC
        count = sum(1 for t in stamps if start <= t < end)
        if count >= need:
            return end - window_end
        start = end
    return None


def _attach_edge_plane(bed: Testbed, node: str, intensity: float,
                       duration_usec: float, seed: int):
    """Build the wire-fault plane for *node*'s access edge and attach
    it; ``None`` when the plan is empty."""
    plan = edge_fault_plan(intensity, duration_usec, seed)
    if plan is None:
        return None
    plane = FaultPlane(bed.sim, plan)
    bed.network.attach_link_fault_plane(node, "sw0", plane)
    return plane


def _build(bed: Testbed, arch: Architecture, intensity: float,
           duration_usec: float, seed: int, blast_pps: float,
           cores: int):
    """The server host with its two sinks, then the victim and the
    blaster.  Returns ``(server host, victim latency recorder, fault
    planes)``: the planes are the server's, the victim edge's and the
    blaster edge's, each ``None`` when empty."""
    sim = bed.sim
    host_plane = None
    plan = host_fault_plan(intensity, duration_usec, seed)
    if plan is not None:
        host_plane = FaultPlane(sim, plan)
    host = bed.add_host(SERVER_ADDR, arch, name="server",
                        fault_plane=host_plane, cores=cores)
    recorder = LatencyRecorder()

    def on_victim(stamp, dgram):
        recorder.record(sim.now - stamp, now=sim.now)

    host.spawn("victim-srv",
               udp_blast_sink(VICTIM_PORT, on_receive=on_victim))
    host.spawn("blast-sink", udp_blast_sink(BLAST_PORT))

    victim_plane = _attach_edge_plane(bed, "victim", intensity,
                                      duration_usec, seed)
    victim = RawUdpInjector(sim, bed.network, CLIENT_A_ADDR,
                            SERVER_ADDR, VICTIM_PORT, src_port=22000)
    sim.schedule(10_000.0, victim.start, VICTIM_PPS)

    # seed+1: the blaster's edge plane must draw from streams distinct
    # from the victim's (identical plans share per-rule RNG seeds).
    blaster_plane = _attach_edge_plane(bed, "blaster", intensity,
                                       duration_usec, seed + 1)
    blaster = BurstyUdpBlaster(sim, bed.network, CLIENT_C_ADDR,
                               SERVER_ADDR, BLAST_PORT)
    sim.schedule(20_000.0, blaster.start, blast_pps)
    return host, recorder, (host_plane, victim_plane, blaster_plane)


def run_point(arch: Architecture, intensity: float,
              duration_usec: float = 1_200_000.0,
              warmup_usec: float = 200_000.0,
              seed: int = 7,
              cores: int = 1) -> Dict:
    """One degradation point: victim flow vs. blaster under the
    canonical fault plan at *intensity*."""
    arch = Architecture(arch)
    blast_pps = BLAST_BASE_PPS + intensity * BLAST_EXTRA_PPS
    bed = Testbed(seed, topology=degradation_spec())
    host, recorder, planes = _build(
        bed, arch, intensity, duration_usec, seed, blast_pps, cores)
    bed.run(duration_usec)

    # Goodput and latency tails over the measurement window.
    window = duration_usec - warmup_usec
    delivered = recorder.samples_since(warmup_usec)
    goodput = len(delivered) * 1e6 / window

    tail = LatencyRecorder()
    for sample in delivered:
        tail.record(sample)

    # Recovery: delivery-rate baseline before the fault window,
    # compared against post-window bins.
    w0, w1 = 0.35 * duration_usec, 0.55 * duration_usec
    baseline = sum(1 for t in recorder.stamps
                   if warmup_usec <= t < w0) * 1e6 / (w0 - warmup_usec)
    recovery = _recovery_usec(recorder.stamps, w1, duration_usec,
                              baseline)

    faults: Dict[str, int] = {}
    injected = 0
    for plane in planes:
        if plane is None:
            continue
        injected += plane.injected_total()
        for key, value in plane.snapshot().items():
            faults[key] = faults.get(key, 0) + value

    stack = host.stack
    return {
        "intensity": intensity,
        "blast_pps": blast_pps,
        "victim_goodput_pps": json_num(goodput, 1),
        "latency_p50_usec": json_num(tail.percentile(50.0), 1),
        "latency_p95_usec": json_num(tail.percentile(95.0), 1),
        "latency_p99_usec": json_num(tail.percentile(99.0), 1),
        "recovery_usec": recovery,
        "injected_faults": injected,
        "faults": faults,
        "channel_discards": channel_discard_summary(
            stack.iter_channels()),
        "mbuf_exhaustions": stack.mbufs.exhaustions,
        "drop_corrupt": stack.stats.get("drop_corrupt"),
        "cores": cores,
        "core_usage": host.kernel.core_usage(bed.sim.now),
    }


# ----------------------------------------------------------------------
# TCP delivery under loss + corruption
# ----------------------------------------------------------------------
def _tcp_receiver(port: int, expect: int, received: List[int]):
    sock = yield Syscall("socket", stype="tcp")
    yield Syscall("bind", sock=sock, port=port)
    yield Syscall("listen", sock=sock, backlog=2)
    conn = yield Syscall("accept", sock=sock)
    got = 0
    while got < expect:
        n = yield Syscall("recv", sock=conn)
        if n == 0:
            break
        got += n
    received.append(got)
    yield Syscall("close", sock=conn)


def _tcp_sender(dst_addr, port: int, nbytes: int, chunk: int,
                socks: List):
    yield Sleep(10_000.0)
    sock = yield Syscall("socket", stype="tcp")
    rc = yield Syscall("connect", sock=sock, addr=dst_addr, port=port)
    if rc != 0:
        return
    socks.append(sock)
    sent = 0
    while sent < nbytes:
        n = min(chunk, nbytes - sent)
        yield Syscall("send", sock=sock, nbytes=n)
        sent += n
    yield Syscall("close", sock=sock)


def run_tcp_point(arch: Architecture, intensity: float,
                  nbytes: int = 64_000, seed: int = 3,
                  cores: int = 1) -> Dict:
    """A TCP transfer through a lossy, corrupting window.

    Loss forces retransmission and RTO backoff; corrupt segments are
    dropped at input as ``drop_corrupt`` and recover the same way.  The point of
    the point: *every* architecture delivers the full byte stream —
    including the modern stacks when run with *cores* >= 2.
    """
    arch = Architecture(arch)
    port = 8200
    window = (12_000.0, 400_000.0)
    rules = ()
    if intensity > 0:
        rules = (
            FaultRule("link", "drop", start_usec=window[0],
                      end_usec=window[1], proto=IPPROTO_TCP,
                      probability=0.2 * intensity, name="tcp-loss"),
            FaultRule("link", "corrupt", start_usec=window[0],
                      end_usec=window[1], proto=IPPROTO_TCP,
                      probability=0.15 * intensity, name="tcp-corrupt"),
        )
    plan = FaultPlan(seed=seed, rules=rules)
    bed = Testbed(seed=seed, fault_plan=plan)
    server = bed.add_host(SERVER_ADDR, arch, cores=cores)
    client = bed.add_host(CLIENT_A_ADDR, arch, cores=cores)

    received: List[int] = []
    socks: List = []
    server.spawn("rx", _tcp_receiver(port, nbytes, received))
    client.spawn("tx", _tcp_sender(SERVER_ADDR, port, nbytes,
                                   chunk=4096, socks=socks))

    limit = 30_000_000.0
    while not received and bed.sim.now < limit:
        bed.sim.run_until(bed.sim.now + 100_000.0)

    max_backoff = 1
    for sock in socks:
        if sock.pcb is not None:
            max_backoff = max(max_backoff, sock.pcb.max_backoff)

    plane = bed.fault_plane
    rexmt = (server.stack.stats.get("tcp_rexmt_timeouts")
             + client.stack.stats.get("tcp_rexmt_timeouts"))
    return {
        "intensity": intensity,
        "bytes_expected": nbytes,
        "bytes_received": received[0] if received else 0,
        "complete": bool(received) and received[0] == nbytes,
        "elapsed_usec": json_num(bed.sim.now, 1),
        "tcp_rexmt_timeouts": rexmt,
        "max_backoff": max_backoff,
        "injected_faults": plane.injected_total() if plane else 0,
        "faults": plane.snapshot() if plane else {},
        "drop_corrupt": (server.stack.stats.get("drop_corrupt")
                         + client.stack.stats.get("drop_corrupt")),
    }


# ----------------------------------------------------------------------
#: The CLI flags this experiment honours (keywords of :func:`sections`).
FLAGS = ("cores",)


def sections(cores: int = 1) -> List[Section]:
    """The fault-intensity sweep, then TCP delivery through the fault
    window.  cores >= 2 widens both to the six-architecture family
    (docs/ARCHITECTURES.md)."""
    systems = (MAIN_SYSTEMS + MODERN_ARCHES) if cores > 1 \
        else MAIN_SYSTEMS
    return [
        Section("degradation", run_point,
                axes={"arch": systems, "intensity": DEFAULT_INTENSITIES},
                fixed={"duration_usec": 1_200_000.0, "cores": cores},
                fast={"intensity": (0.0, 1.0),
                      "duration_usec": 800_000.0}),
        Section("degradation-tcp", run_tcp_point,
                axes={"arch": systems, "intensity": (1.0,)},
                fixed={"cores": cores}),
    ]


def report(points, tcp_points) -> str:
    curves = by_arch(points)
    goodput = {name: [(p["intensity"], p["victim_goodput_pps"])
                      for p in pts] for name, pts in curves.items()}
    p99 = {name: [(p["intensity"], p["latency_p99_usec"]) for p in pts]
           for name, pts in curves.items()}
    out = [format_series(
        "Degradation: victim goodput vs. fault intensity",
        "intensity", "pps", goodput)]
    out.append("")
    out.append(format_series(
        "Degradation: victim one-way latency p99",
        "intensity", "p99 us", p99))
    out.append("\n== Recovery and fault accounting ==")
    table = [(kwargs["arch"].value, r["intensity"],
              r["victim_goodput_pps"],
              "-" if r["recovery_usec"] is None
              else f"{r['recovery_usec'] / 1000:.0f}",
              r["injected_faults"], r["drop_corrupt"],
              r["mbuf_exhaustions"])
             for kwargs, r in points]
    out.append(format_table(
        ("system", "intensity", "goodput pps", "recovery ms",
         "faults", "drop_corrupt", "mbuf_exh"), table))
    out.append("\n== TCP delivery through loss + corruption ==")
    tcp = [(kwargs["arch"].value, r["intensity"],
            f"{r['bytes_received']}/{r['bytes_expected']}",
            "yes" if r["complete"] else "NO",
            r["tcp_rexmt_timeouts"], r["max_backoff"],
            r["injected_faults"])
           for kwargs, r in tcp_points]
    out.append(format_table(
        ("system", "intensity", "bytes", "complete", "rexmt",
         "max backoff", "faults"), tcp))
    return "\n".join(out)
