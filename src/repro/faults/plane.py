"""The runtime half of fault injection: one plane per simulation.

A :class:`FaultPlane` binds a :class:`~repro.faults.plan.FaultPlan` to
a :class:`~repro.engine.simulator.Simulator` and exposes the per-layer
hooks the subsystems consult:

* :meth:`link_disposition` — called by ``Network.send`` for every frame;
* scheduled window callbacks toggle NI-channel stalls and mbuf-pool
  reservations at rule boundaries.

Determinism: every probabilistic decision draws from a per-rule
``random.Random`` seeded by SHA-256 over ``(plan.seed, rule index,
rule label)``.  The simulator's own RNG is never touched, so attaching
a plane perturbs nothing outside the faults it injects, and two runs
of the same seeded plan consume identical random streams regardless of
what else the hosting process has executed.

Injected faults are counted in a :class:`~repro.stats.metrics.Counter`
(keys ``<layer>_<kind>``) and emitted as ``fault_injected`` trace
records, so golden traces capture fault runs end to end.
"""

from __future__ import annotations

import hashlib
import random
from typing import List

from repro.faults.plan import FaultPlan, FaultRule
from repro.net.ip import IpPacket
from repro.net.packet import Frame
from repro.stats.metrics import Counter
from repro.trace.tracer import flow_of


def _rule_seed(plan_seed: int, index: int, label: str) -> int:
    digest = hashlib.sha256(
        f"fault:{plan_seed}:{index}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _matches(rule: FaultRule, packet: IpPacket) -> bool:
    if rule.proto is not None and packet.proto != rule.proto:
        return False
    if rule.dst_port is not None:
        transport = packet.transport
        if transport is None or getattr(transport, "dst_port", None) \
                != rule.dst_port:
            return False
    return True


class FaultPlane:
    """Executes one :class:`FaultPlan` inside one simulation."""

    def __init__(self, sim, plan: FaultPlan):
        self.sim = sim
        self.plan = plan
        #: Injected-fault counters, keyed ``<layer>_<kind>`` (plus
        #: window-edge markers like ``nic_stall_on``).
        self.counters = Counter()
        self._rngs = {i: random.Random(_rule_seed(plan.seed, i, r.label))
                      for i, r in enumerate(plan.rules)}
        self._link_rules = plan.layer_rules("link")
        self._hosts: List = []
        self._install_windows()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_network(self, network) -> None:
        network.fault_plane = self

    def attach_host(self, host) -> None:
        """Register a simulated machine: its mbuf pool joins exhaustion
        windows and its NI channels join stall windows."""
        self._hosts.append(host)

    def _install_windows(self) -> None:
        """Schedule the window-edge callbacks for stall/exhaust rules.
        Open-ended rules get no closing edge."""
        now = self.sim.now
        for index, rule in enumerate(self.plan.rules):
            if rule.layer == "nic" and rule.kind == "stall":
                on, off = self._stall_edge, self._stall_edge
            elif rule.layer == "mbuf" and rule.kind == "exhaust":
                on, off = self._exhaust_edge, self._exhaust_edge
            else:
                continue
            self.sim.schedule_at(max(now, rule.start_usec),
                                 on, index, True)
            if rule.end_usec is not None:
                self.sim.schedule_at(max(now, rule.end_usec),
                                     off, index, False)

    # ------------------------------------------------------------------
    # Link layer (consulted by Network.send)
    # ------------------------------------------------------------------
    def link_disposition(self, frame: Frame) -> bool:
        """Apply every live link rule to *frame* in plan order.

        Returns whether the frame is dropped.  A drop short-circuits;
        corruption mutates the packet in place.
        """
        now = self.sim.now
        packet = frame.packet
        for index, rule in self._link_rules:
            if not rule.active(now) or not _matches(rule, packet):
                continue
            rng = self._rngs[index]
            if rule.probability < 1.0 and rng.random() >= rule.probability:
                continue
            self._note(rule, packet)
            if rule.kind == "drop":
                return True
            packet.corrupt = True
            # The drawn value is unused, but the draw stays: removing it
            # would shift this rule's stream and every later decision.
            rng.randrange(256)
        return False

    # ------------------------------------------------------------------
    # Windows
    # ------------------------------------------------------------------
    def _stall_edge(self, index: int, active: bool) -> None:
        """A stall window opened or closed: toggle every matching NI
        channel.  A host without NI channels has nothing to stall."""
        rule = self.plan.rules[index]
        self.counters.incr(f"nic_stall_{'on' if active else 'off'}")
        for host in self._hosts:
            for channel in host.stack.iter_channels():
                owner = channel.owner_socket
                if rule.dst_port is not None:
                    if owner is None or owner.local is None or \
                            owner.local.port != rule.dst_port:
                        continue
                channel.stalled = active

    def _exhaust_edge(self, index: int, active: bool) -> None:
        rule = self.plan.rules[index]
        self.counters.incr(f"mbuf_exhaust_{'on' if active else 'off'}")
        reserve = int(rule.magnitude) if active else 0
        for host in self._hosts:
            host.stack.mbufs.fault_reserved = reserve

    # ------------------------------------------------------------------
    def _note(self, rule: FaultRule, packet: IpPacket) -> None:
        self.counters.incr(f"{rule.layer}_{rule.kind}")
        trace = self.sim.trace
        if trace.enabled:
            trace.fault_injected(rule.layer, rule.kind, flow_of(packet))

    def injected_total(self) -> int:
        """Total per-packet faults injected (window-edge markers
        excluded)."""
        return sum(v for k, v in self.counters.as_dict().items()
                   if not k.endswith("_on") and not k.endswith("_off"))

    def snapshot(self) -> dict:
        return self.counters.as_dict()
