"""End-to-end conservation across the three canonical topologies.

Every injected frame must be accounted for at every hop: what the
clients send either reaches an application, sits in an explicit queue,
or died at a *named* drop point (switch output queue, fault plane,
NIC ring, IP input queue, NI channel, socket queue).  The
tests run each canonical graph — single-host passthrough, the gateway
chain, and 4→1 incast — clean and under a seeded fault plan, stop the
sources early, let the world drain, and then demand exact ledgers:

* fabric level: ``sent == delivered + drops-by-cause``
  with nothing left in flight;
* host level: frames delivered to a NIC equal application receipts
  plus every stack-layer drop counter.
"""

import pytest

from repro.apps import udp_blast_sink
from repro.core import Architecture
from repro.core.forwarding import build_gateway
from repro.faults import FaultPlan, FaultPlane, FaultRule
from repro.net.topology import (
    gateway_chain_spec,
    incast_client_addr,
    incast_spec,
    passthrough_spec,
)
from repro.workloads import RawUdpInjector
from repro.experiments.common import Testbed

PORT = 9000
STOP_USEC = 150_000.0
DRAIN_USEC = 500_000.0


def fabric_ledger(topo):
    """Assert the fabric-level conservation identity; returns the
    ledger for further checks."""
    c = topo.conservation()
    assert c["in_flight"] == 0, "frames still on the wire after drain"
    assert c["sent"] == (
        c["delivered"] + c["drops_no_route"] + c["drops_port_queue"]
        + c["drops_fault"])
    return c

def host_receive_ledger(host):
    """Every frame the NIC accepted, by fate."""
    stats = host.stack.stats
    # Every early discard — SOFT-LRP's interrupt-time shed and the
    # programmable NIC's firmware shed alike — lands in the channel's
    # own counters (the stack's ``drop_channel_early`` stat annotates
    # the same events for SOFT-LRP; adding it would double-count).
    channel_drops = sum(ch.total_discards()
                        for ch in host.stack.iter_channels())
    return {
        "ring": host.nic.rx_drops_ring,
        "ipq": stats.get("drop_ipq"),
        "channel": channel_drops,
        "sockq": (stats.get("drop_sockq")
                  + stats.get("drop_early_sockq_full")),
        "mbufs": stats.get("drop_mbufs"),
        "corrupt": stats.get("drop_corrupt"),
        "demux": stats.get("drop_demux_unmatched"),
    }


def drop_total(ledger):
    return sum(ledger.values())


def sink_counter(bed, host, port=PORT):
    received = [0]

    def on_rx(stamp, dgram):
        received[0] += 1

    host.spawn("sink", udp_blast_sink(port, on_receive=on_rx))
    return received


def run_world(bed, injectors, rate_pps):
    for i, injector in enumerate(injectors):
        bed.sim.schedule(5_000.0 + 97.0 * i, injector.start, rate_pps)
        bed.sim.schedule(STOP_USEC, injector.stop)
    bed.run(DRAIN_USEC)


def fault_plan():
    return FaultPlan(seed=77, rules=(
        FaultRule("link", "drop", start_usec=20_000.0,
                  end_usec=120_000.0, probability=0.15,
                  name="topo-loss"),
        FaultRule("link", "corrupt", start_usec=20_000.0,
                  end_usec=120_000.0, probability=0.10,
                  name="topo-corrupt"),
    ))


# ---------------------------------------------------------------------------
# Passthrough: client — sw0 — server
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_passthrough_conserves_every_frame(faulty):
    bed = Testbed(seed=3, topology=passthrough_spec(),
                  fault_plan=fault_plan() if faulty else None)
    server = bed.add_host("10.0.0.1", Architecture.SOFT_LRP,
                          name="server")
    received = sink_counter(bed, server)
    injector = RawUdpInjector(bed.sim, bed.network, "10.0.0.2",
                              "10.0.0.1", PORT)
    run_world(bed, [injector], rate_pps=3_000.0)

    ledger = fabric_ledger(bed.network)
    assert ledger["sent"] == injector.sent
    host = host_receive_ledger(server)
    assert received[0] + drop_total(host) == ledger["delivered"]
    if faulty:
        assert ledger["drops_fault"] > 0
        assert bed.fault_plane.counters.get("link_corrupt") > 0
    else:
        assert bed.network.total_drops() == 0
        # At 3k pkts/sec nothing contends: every datagram arrives.
        assert received[0] == injector.sent
        # Both hops forwarded every frame.
        uplink = bed.network.switches["sw0"].ports["server"]
        assert uplink.serviced == injector.sent
        assert uplink.drops_overflow == 0


# ---------------------------------------------------------------------------
# Gateway chain: client — sw-edge — gateway — sw-core — backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_gateway_chain_conserves_across_both_subnets(faulty):
    bed = Testbed(seed=9, topology=gateway_chain_spec(),
                  fault_plan=fault_plan() if faulty else None)
    gateway, daemon = build_gateway(bed, "10.0.0.254", "10.0.1.254",
                                    Architecture.SOFT_LRP)
    backend = bed.add_host("10.0.1.1", Architecture.SOFT_LRP,
                           name="backend")
    received = sink_counter(bed, backend)
    injector = RawUdpInjector(bed.sim, bed.network, "10.0.0.2",
                              "10.0.1.1", PORT, next_hop="10.0.0.254")
    run_world(bed, [injector], rate_pps=2_000.0)

    ledger = fabric_ledger(bed.network)
    forwarded = gateway.stack.stats.get("ip_forwarded")
    # The fabric carries two generations of every transit frame: the
    # client's injection and the gateway's re-send.
    assert ledger["sent"] == injector.sent + forwarded
    gw_ledger = host_receive_ledger(gateway)
    be_ledger = host_receive_ledger(backend)
    # Deliveries split between the two NICs; the backend's ledger
    # pins its share, and what remains reached the gateway, where
    # every frame was either forwarded or dropped at a named point
    # (the forwarding channel's discards are in its channel ledger).
    gw_received = ledger["delivered"] - received[0] \
        - drop_total(be_ledger)
    assert gw_received == forwarded + drop_total(gw_ledger)
    if faulty:
        assert ledger["drops_fault"] > 0
    else:
        assert bed.network.total_drops() == 0
        # Moderate transit load: the chain is lossless end to end.
        assert forwarded == injector.sent
        assert received[0] == injector.sent
        for sw in ("sw-edge", "sw-core"):
            for port in bed.network.switches[sw].ports.values():
                assert port.drops_overflow == 0


# ---------------------------------------------------------------------------
# Incast: 4 clients — sw0 — server
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("faulty", [False, True],
                         ids=["clean", "faults"])
def test_incast_accounts_for_overload_drops(faulty):
    fan_in = 4
    bed = Testbed(seed=5, topology=incast_spec(fan_in, queue_frames=16),
                  fault_plan=fault_plan() if faulty else None)
    server = bed.add_host("10.0.0.1", Architecture.SOFT_LRP,
                          name="server")
    received = sink_counter(bed, server)
    injectors = [
        RawUdpInjector(bed.sim, bed.network, incast_client_addr(i),
                       "10.0.0.1", PORT, src_port=20000 + i)
        for i in range(fan_in)]
    # Far past both the switch uplink's and the server's capacity: the
    # ledger must name every casualty of the overload.
    run_world(bed, injectors, rate_pps=120_000.0)

    ledger = fabric_ledger(bed.network)
    assert ledger["sent"] == sum(inj.sent for inj in injectors)
    host = host_receive_ledger(server)
    assert received[0] + drop_total(host) == ledger["delivered"]
    # The overload is real and lands where the architecture says: the
    # switch uplink sheds at its output queue, the host sheds at the
    # LRP demux point — and both ledgers name their drops exactly.
    assert ledger["drops_port_queue"] > 0
    assert host["channel"] > 0
    sw_stats = bed.network.hop_stats()["sw0"]
    assert sum(p["drops_overflow"] for p in sw_stats.values()) == \
        ledger["drops_port_queue"]
    if faulty:
        assert ledger["drops_fault"] > 0


# ---------------------------------------------------------------------------
# Per-edge fault planes
# ---------------------------------------------------------------------------

def test_per_edge_fault_plane_hits_only_its_edge():
    bed = Testbed(seed=3, topology=passthrough_spec())
    server = bed.add_host("10.0.0.1", Architecture.SOFT_LRP,
                          name="server")
    received = sink_counter(bed, server)
    plane = FaultPlane(bed.sim, FaultPlan(seed=21, rules=(
        FaultRule("link", "drop", probability=0.5, name="edge-loss"),)))
    bed.network.attach_link_fault_plane("sw0", "server", plane)
    injector = RawUdpInjector(bed.sim, bed.network, "10.0.0.2",
                              "10.0.0.1", PORT)
    run_world(bed, [injector], rate_pps=3_000.0)

    ledger = fabric_ledger(bed.network)
    uplink_edge = next(l for l in bed.network.links
                       if {l.a, l.b} == {"sw0", "server"})
    access_edge = next(l for l in bed.network.links
                       if {l.a, l.b} == {"client", "sw0"})
    assert uplink_edge.drops_fault > 0
    assert access_edge.drops_fault == 0
    # The per-edge counter is the breakdown of the fabric total.
    assert ledger["drops_fault"] == uplink_edge.drops_fault
    assert received[0] == injector.sent - uplink_edge.drops_fault
