"""Switched multi-host topologies.

The flat :class:`~repro.net.link.Network` models the paper's testbed:
one LAN, every NIC one hop from every other.  This module generalizes
it to a *graph*: hosts and switches are nodes, :class:`Link` edges
carry per-edge bandwidth and propagation delay, and switches store and
forward frames through finite output queues.  The NIC-facing surface
(``attach``, ``send``, ``bandwidth``, ``signalling``) is identical to
``Network``, so every existing NIC, stack, and injector runs unchanged
on top of a topology — only the world between the NICs grows.

Scenarios are *declared* with :class:`TopologySpec` — a frozen,
picklable dataclass tree — and instantiated per simulation with
:meth:`TopologySpec.build`.  Declarative specs serve three masters at
once: sweep points can take a topology as an ordinary parameter, the
content-addressed result cache can key on topology identity (see
:func:`repro.runner.cache.point_digest`), and tests can enumerate
canonical graphs without touching runtime objects.

Routing is static shortest-path: :meth:`Topology.build_routes` runs a
deterministic BFS (hop count, ties broken by node name) and installs a
next-hop forwarding table at every node.  Switch output ports drain at
their link's bandwidth and apply one of two drop policies when the
queue fills:

* ``fifo`` — tail drop: the arriving frame is discarded;
* ``priority`` — strict classes by UDP/TCP destination port: a frame
  of a higher class displaces the most recently queued frame of the
  lowest class, service always picks the highest class first, and
  order *within* a class is never violated.

An optional random-early-drop knee (``red_start``) sheds load
probabilistically before the queue is full; its draws come from a
:meth:`~repro.engine.simulator.Simulator.named_rng` stream per port,
so drop decisions are a pure function of the simulation seed and the
arrival sequence.

Fault injection composes at two grains: a plane attached to the whole
topology (``FaultPlane.attach_network``) sees every frame once at its
source access link, exactly like the flat LAN; a plane attached to one
edge with :meth:`Topology.attach_link_fault_plane` disturbs only the
frames traversing that edge.

Sharding invariants (the PDES contract, docs/PDES.md): a
:class:`Topology` built with ``owned_nodes`` instantiates ports and
switches only for the owned subset of the graph; a frame whose next
hop crosses the ownership boundary is handed to the ``boundary``
callback (timestamped with its would-be arrival time) instead of being
scheduled locally, and :meth:`Topology.import_frame` re-injects frames
arriving from other shards.  The hand-off happens *synchronously
inside* :meth:`OutPort._service`, so the owned-case schedule-call
order — and therefore every golden trace of an unsharded run — is
bit-identical to the pre-sharding code.  Conservation extends across
the cut: per-shard ledgers gain ``exported``/``imported`` counts and
the global invariant becomes ``sent + duplicated + imported ==
delivered + drops + in_flight + exported`` summed over shards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr
from repro.net.link import ATM_155_BITS_PER_USEC, CongestionKnee
from repro.net.packet import Frame
from repro.net.signalling import SignallingDirectory
from repro.trace.tracer import flow_of

#: Default switch output-queue capacity, frames (matches the flat
#: LAN's receiving-port queue).
DEFAULT_PORT_QUEUE = 64


# ----------------------------------------------------------------------
# Declarative specs (frozen, picklable, cache-canonicalizable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkSpec:
    """One undirected edge between two named nodes."""

    a: str
    b: str
    bandwidth_bits_per_usec: float = ATM_155_BITS_PER_USEC
    propagation_usec: float = 10.0


@dataclass(frozen=True)
class SwitchSpec:
    """A store-and-forward switch node.

    ``policy`` is ``"fifo"`` (tail drop) or ``"priority"`` (strict
    classes; ``priority_ports`` lists the transport destination ports
    forming the high class).  ``red_start`` in (0, 1] enables random
    early drop once occupancy crosses that fraction of ``queue_frames``.
    """

    name: str
    queue_frames: int = DEFAULT_PORT_QUEUE
    policy: str = "fifo"
    priority_ports: Tuple[int, ...] = ()
    red_start: Optional[float] = None


@dataclass(frozen=True)
class BindingSpec:
    """Maps an IP address to the host node where its NIC attaches."""

    addr: str
    node: str


@dataclass(frozen=True)
class TopologySpec:
    """A complete scenario graph, ready to :meth:`build` per-sim.

    Host nodes are implicit: every link endpoint that is not a switch
    name is a host attachment point.  ``name`` identifies the topology
    in cache keys, sweep logs and reports.

    ``congestion_knee_pps`` reproduces the flat LAN's stochastic
    degradation artifact (see :class:`repro.net.link.Network`): above
    the knee, frames are dropped at their source access link with a
    probability ramping by ``congestion_slope`` per excess pkt/sec.
    The rate estimate (an EWMA over injection gaps) lives in each
    shard's :class:`Topology` instance, so under the PDES contract the
    knee is partition-invariant only while every sender shares one
    shard — exactly the figure-3 shape (a lone client blasting a
    sink), which is what this models.
    """

    name: str
    links: Tuple[LinkSpec, ...]
    switches: Tuple[SwitchSpec, ...] = ()
    bindings: Tuple[BindingSpec, ...] = ()
    congestion_knee_pps: Optional[float] = None
    congestion_slope: float = 4e-6

    def host_nodes(self) -> Tuple[str, ...]:
        switch_names = {s.name for s in self.switches}
        seen: List[str] = []
        for link in self.links:
            for end in (link.a, link.b):
                if end not in switch_names and end not in seen:
                    seen.append(end)
        return tuple(seen)

    def build(self, sim: Simulator, owned_nodes=None,
              boundary=None) -> "Topology":
        """Instantiate the runtime graph; *owned_nodes*/*boundary*
        restrict it to one shard's slice (see :class:`Topology`)."""
        return Topology(sim, self, owned_nodes=owned_nodes,
                        boundary=boundary)


# ----------------------------------------------------------------------
# Canonical graphs
# ----------------------------------------------------------------------
def passthrough_spec(server_addr: str = "10.0.0.1",
                     client_addr: str = "10.0.0.2",
                     congestion_knee_pps: Optional[float] = None,
                     **link_kwargs) -> TopologySpec:
    """Single-host passthrough: client — switch — server.

    The minimal switched world; semantically the flat LAN with one
    explicit store-and-forward hop.  ``congestion_knee_pps`` carries
    the flat LAN's stochastic wire-loss knee over (figure 3's offered
    rates exceed it).
    """
    return TopologySpec(
        name="passthrough",
        switches=(SwitchSpec("sw0"),),
        links=(LinkSpec("client", "sw0", **link_kwargs),
               LinkSpec("sw0", "server", **link_kwargs)),
        bindings=(BindingSpec(server_addr, "server"),
                  BindingSpec(client_addr, "client")),
        congestion_knee_pps=congestion_knee_pps)


def gateway_chain_spec(client_addr: str = "10.0.0.2",
                       gw_addr_a: str = "10.0.0.254",
                       gw_addr_b: str = "10.0.1.254",
                       backend_addr: str = "10.0.1.1",
                       **link_kwargs) -> TopologySpec:
    """Gateway chain: client — sw-edge — gateway — sw-core — backend.

    The two-interface IP gateway of Sections 2.3/3.5
    (:func:`repro.core.forwarding.build_gateway`) placed between two
    switched subnets; both gateway addresses bind at the same node.
    """
    return TopologySpec(
        name="gateway-chain",
        switches=(SwitchSpec("sw-edge"), SwitchSpec("sw-core")),
        links=(LinkSpec("client", "sw-edge", **link_kwargs),
               LinkSpec("sw-edge", "gateway", **link_kwargs),
               LinkSpec("gateway", "sw-core", **link_kwargs),
               LinkSpec("sw-core", "backend", **link_kwargs)),
        bindings=(BindingSpec(client_addr, "client"),
                  BindingSpec(gw_addr_a, "gateway"),
                  BindingSpec(gw_addr_b, "gateway"),
                  BindingSpec(backend_addr, "backend")))


def incast_spec(fan_in: int, server_addr: str = "10.0.0.1",
                client_prefix: str = "10.0.0.",
                client_base: int = 10,
                queue_frames: int = DEFAULT_PORT_QUEUE,
                policy: str = "fifo",
                priority_ports: Tuple[int, ...] = (),
                red_start: Optional[float] = None,
                **link_kwargs) -> TopologySpec:
    """N→1 incast: *fan_in* clients through one switch into one server.

    The datacenter pattern the paper's single-link testbed cannot
    express: every client's access link is idle while the single
    switch→server link and the server's receive path absorb the
    aggregate.
    """
    if fan_in < 1:
        raise ValueError(f"fan_in must be >= 1, got {fan_in}")
    links = [LinkSpec("sw0", "server", **link_kwargs)]
    bindings = [BindingSpec(server_addr, "server")]
    for i in range(fan_in):
        node = f"client{i}"
        links.append(LinkSpec(node, "sw0", **link_kwargs))
        bindings.append(
            BindingSpec(f"{client_prefix}{client_base + i}", node))
    return TopologySpec(
        name=f"incast-{fan_in}to1",
        switches=(SwitchSpec("sw0", queue_frames=queue_frames,
                             policy=policy,
                             priority_ports=tuple(priority_ports),
                             red_start=red_start),),
        links=tuple(links),
        bindings=tuple(bindings))


# ----------------------------------------------------------------------
# Runtime objects
# ----------------------------------------------------------------------
class Link:
    """One edge at runtime; carries per-edge fault attachment."""

    __slots__ = ("spec", "a", "b", "bandwidth", "propagation",
                 "fault_plane", "frames", "drops_fault")

    def __init__(self, spec: LinkSpec):
        self.spec = spec
        self.a = spec.a
        self.b = spec.b
        self.bandwidth = spec.bandwidth_bits_per_usec
        self.propagation = spec.propagation_usec
        #: Per-edge :class:`~repro.faults.plane.FaultPlane`, if any.
        self.fault_plane = None
        self.frames = 0
        self.drops_fault = 0

    def other(self, node: str) -> str:
        return self.b if node == self.a else self.a

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.a}--{self.b} {self.bandwidth}b/us>"


class OutPort:
    """A node's transmit port onto one link: finite queue + server.

    The queue holds ``(frame, dst_key, priority)`` triples; service
    order and overflow behaviour depend on the owning switch's policy.
    """

    __slots__ = ("topology", "node", "link", "capacity", "policy",
                 "priority_ports", "red_start", "_rng", "queue",
                 "busy", "enqueued", "serviced", "drops_overflow",
                 "drops_red", "peak_depth", "name")

    def __init__(self, topology: "Topology", node: str, link: Link,
                 capacity: int, policy: str,
                 priority_ports: Tuple[int, ...],
                 red_start: Optional[float]):
        self.topology = topology
        self.node = node
        self.link = link
        self.capacity = capacity
        self.policy = policy
        self.priority_ports = frozenset(priority_ports)
        self.red_start = red_start
        self.name = f"sw.{node}->{link.other(node)}"
        # Early-drop draws come from a per-port named stream so they
        # are reproducible and independent of all other randomness.
        self._rng = (topology.sim.named_rng(f"topology.red.{self.name}")
                     if red_start is not None else None)
        self.queue: Deque[Tuple[Frame, int, int]] = deque()
        self.busy = False
        self.enqueued = 0
        self.serviced = 0
        self.drops_overflow = 0
        self.drops_red = 0
        self.peak_depth = 0

    # ------------------------------------------------------------------
    def classify(self, frame: Frame) -> int:
        if not self.priority_ports:
            return 0
        transport = frame.packet.transport
        port = getattr(transport, "dst_port", None)
        return 1 if port in self.priority_ports else 0

    def enqueue(self, frame: Frame, dst_key: int) -> bool:
        """Queue *frame* for transmission; False if it was dropped."""
        topo = self.topology
        prio = self.classify(frame)
        if self._rng is not None and len(self.queue) >= \
                self.red_start * self.capacity:
            # Linear ramp from 0 at the knee to 1 at a full queue.
            span = max(1.0, self.capacity * (1.0 - self.red_start))
            p = (len(self.queue) - self.red_start * self.capacity
                 + 1.0) / span
            if self._rng.random() < p:
                self.drops_red += 1
                topo._count_drop("red", frame)
                return False
        if len(self.queue) >= self.capacity:
            victim = self._overflow_victim(prio)
            if victim is None:
                self.drops_overflow += 1
                topo._count_drop("port_queue", frame)
                return False
            dropped, _, _ = self.queue[victim]
            del self.queue[victim]
            self.drops_overflow += 1
            topo._count_drop("port_queue", dropped)
        self.enqueued += 1
        self.queue.append((frame, dst_key, prio))
        if len(self.queue) > self.peak_depth:
            self.peak_depth = len(self.queue)
        if not self.busy:
            self._service()
        return True

    def _overflow_victim(self, incoming_prio: int) -> Optional[int]:
        """Index of the queued frame to displace, or None to drop the
        arrival.  FIFO always drops the arrival; priority displaces
        the most recently queued frame of the lowest class strictly
        below the arrival's class (so within-class order is intact)."""
        if self.policy != "priority" or incoming_prio == 0:
            return None
        lowest = min(entry[2] for entry in self.queue)
        if lowest >= incoming_prio:
            return None
        for index in range(len(self.queue) - 1, -1, -1):
            if self.queue[index][2] == lowest:
                return index
        return None  # pragma: no cover - lowest always present

    def _pick(self) -> Tuple[Frame, int, int]:
        """Next frame to serve: FIFO, or highest class first (FIFO
        within the class)."""
        if self.policy != "priority":
            return self.queue.popleft()
        best_index = 0
        best_prio = self.queue[0][2]
        for index in range(1, len(self.queue)):
            prio = self.queue[index][2]
            if prio > best_prio:
                best_index, best_prio = index, prio
        entry = self.queue[best_index]
        del self.queue[best_index]
        return entry

    def _service(self) -> None:
        if not self.queue:
            self.busy = False
            return
        self.busy = True
        frame, dst_key, _ = self._pick()
        self.serviced += 1
        link = self.link
        tx_time = frame.wire_len * 8.0 / link.bandwidth
        extra_delay = 0.0
        if link.fault_plane is not None:
            drop, extra_delay, dup = \
                link.fault_plane.link_disposition(frame)
            if drop:
                link.drops_fault += 1
                self.topology._count_drop("fault", frame)
                self.topology.sim.schedule_detached(tx_time,
                                                    self._service)
                return
            if dup is not None and len(self.queue) < self.capacity:
                self.topology.dup_frames += 1
                self.queue.append((dup, dst_key, self.classify(dup)))
                self.topology._in_flight += 1
        link.frames += 1
        # The topology decides whether the hop stays local or crosses
        # a shard boundary; the call is synchronous so the owned-case
        # schedule order is identical to scheduling _arrive inline.
        self.topology._transmit(self, frame, dst_key, tx_time,
                                extra_delay)
        self.topology.sim.schedule_detached(tx_time, self._service)


class Switch:
    """A store-and-forward switch: one :class:`OutPort` per link."""

    def __init__(self, topology: "Topology", spec: SwitchSpec):
        self.topology = topology
        self.spec = spec
        self.name = spec.name
        self.ports: Dict[str, OutPort] = {}  # neighbour node -> port

    def add_port(self, link: Link) -> OutPort:
        neighbour = link.other(self.name)
        port = OutPort(self.topology, self.name, link,
                       self.spec.queue_frames, self.spec.policy,
                       self.spec.priority_ports, self.spec.red_start)
        self.ports[neighbour] = port
        return port

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {port.name: {"enqueued": port.enqueued,
                            "serviced": port.serviced,
                            "drops_overflow": port.drops_overflow,
                            "drops_red": port.drops_red,
                            "peak_depth": port.peak_depth}
                for port in self.ports.values()}


class Topology:
    """A runtime graph of hosts, switches and links.

    Presents the :class:`~repro.net.link.Network` surface to NICs
    (``attach`` / ``send`` / ``bandwidth`` / ``signalling`` plus the
    drop counters), while frames travel hop-by-hop through output
    queues and per-edge delays.

    When *owned_nodes* is given (the sharded case; see docs/PDES.md),
    only the owned slice of the graph is instantiated: ports and
    switches exist for owned nodes alone, NICs may attach only at
    owned nodes, and a frame transmitted toward an unowned neighbour
    is handed to the *boundary* callback as
    ``boundary(src_node, dst_node, arrival_time, frame, dst_key)``
    instead of being scheduled locally.  Routing tables still cover
    the whole graph — forwarding decisions must be identical on every
    shard.  With *owned_nodes* ``None`` the behaviour (including every
    schedule call and its order) is exactly the unsharded original.
    """

    def __init__(self, sim: Simulator, spec: TopologySpec,
                 owned_nodes=None, boundary=None):
        self.sim = sim
        self.spec = spec
        self.name = spec.name
        self.signalling = SignallingDirectory()
        #: Whole-topology fault plane (``FaultPlane.attach_network``);
        #: consulted once per frame at the source access link.
        self.fault_plane = None
        #: Shard ownership: ``None`` means the whole graph (unsharded).
        self._owned = (frozenset(owned_nodes)
                       if owned_nodes is not None else None)
        self._boundary = boundary
        if self._owned is not None and boundary is None:
            raise ValueError("owned_nodes requires a boundary callback")

        self.links: List[Link] = [Link(ls) for ls in spec.links]
        self.switches: Dict[str, Switch] = {
            s.name: Switch(self, s) for s in spec.switches
            if self._owned is None or s.name in self._owned}
        self._adjacency: Dict[str, List[Tuple[str, Link]]] = {}
        for link in self.links:
            self._adjacency.setdefault(link.a, []).append((link.b, link))
            self._adjacency.setdefault(link.b, []).append((link.a, link))
        for node in self._adjacency:
            self._adjacency[node].sort(key=lambda pair: pair[0])

        unknown = [s for s in self.switches
                   if s not in self._adjacency]
        if unknown:
            raise ValueError(f"switch(es) with no links: {unknown}")

        #: Per-node output ports, keyed (node, neighbour).  Host nodes
        #: get ports too: their access-link serialization happens here.
        #: Sharded worlds build ports only for owned nodes (a cut
        #: link's port belongs to the shard owning its sending side).
        self._ports: Dict[Tuple[str, str], OutPort] = {}
        for node, neighbours in self._adjacency.items():
            if self._owned is not None and node not in self._owned:
                continue
            switch = self.switches.get(node)
            for neighbour, link in neighbours:
                if switch is not None:
                    self._ports[(node, neighbour)] = \
                        switch.add_port(link)
                else:
                    # Host access port: generous FIFO queue; the NIC's
                    # own ifq is the intended choke point.
                    self._ports[(node, neighbour)] = OutPort(
                        self, node, link, capacity=256, policy="fifo",
                        priority_ports=(), red_start=None)

        #: addr value -> (nic, node name)
        self._nics: Dict[int, object] = {}
        self._node_of: Dict[int, str] = {}
        self._bindings: Dict[int, str] = {
            IPAddr(b.addr).value: b.node for b in spec.bindings}
        host_nodes = set(spec.host_nodes())
        for value, node in self._bindings.items():
            if node not in host_nodes:
                raise ValueError(
                    f"binding {IPAddr(value)} -> {node!r}: not a host "
                    f"node (host nodes: {sorted(host_nodes)})")

        #: node -> {dst host node -> neighbour to forward to}
        self.routes: Dict[str, Dict[str, str]] = {}
        self.build_routes()

        # The flat LAN's stochastic congestion knee, applied to
        # injections: above it, frames drop at the source access link.
        # Specs without a knee draw nothing (golden-trace compatible).
        self.congestion = (CongestionKnee(sim, spec.congestion_knee_pps,
                                          spec.congestion_slope)
                           if spec.congestion_knee_pps is not None
                           else None)

        # Network-compatible counters (totals across every hop).
        self.frames_sent = 0
        self.frames_delivered = 0
        self.drops_no_route = 0
        self.drops_port_queue = 0
        self.drops_red = 0
        self.drops_congestion = 0
        self.drops_fault = 0
        self.dup_frames = 0
        self._in_flight = 0
        # Cross-shard ledger (always 0 in an unsharded world).
        self.frames_exported = 0
        self.frames_imported = 0

    # ------------------------------------------------------------------
    # Network-compatible surface
    # ------------------------------------------------------------------
    @property
    def bandwidth(self) -> float:
        """Default access bandwidth — what NIC interface queues pace
        against (per-edge rates are enforced inside the fabric)."""
        return self.links[0].bandwidth if self.links \
            else ATM_155_BITS_PER_USEC

    @property
    def propagation(self) -> float:
        return self.links[0].propagation if self.links else 10.0

    def attach(self, nic, addr) -> None:
        """Attach *nic* at the host node bound to *addr*.

        The address must be declared in the spec's bindings — the
        graph, not the caller, decides where an address lives.
        """
        key = IPAddr(addr).value
        if key in self._nics:
            raise ValueError(f"address {IPAddr(addr)} already attached")
        node = self._bindings.get(key)
        if node is None:
            raise ValueError(
                f"no binding for {IPAddr(addr)} in topology "
                f"{self.name!r}; declare it in TopologySpec.bindings")
        if self._owned is not None and node not in self._owned:
            raise ValueError(
                f"address {IPAddr(addr)} binds at node {node!r}, "
                f"which this shard does not own — build its host in "
                f"the component owning {node!r}")
        self._nics[key] = nic
        self._node_of[key] = node

    def send(self, frame: Frame, src_addr) -> bool:
        """Inject *frame* at its source host's access link.

        Returns False only for drops decided at injection time (no
        route, source-side fault, full access queue); downstream hops
        drop asynchronously into the topology counters.
        """
        self.frames_sent += 1
        src_key = IPAddr(src_addr).value
        dst_key = (IPAddr(frame.link_dst).value
                   if frame.link_dst is not None
                   else frame.packet.dst.value)
        src_node = self._node_of.get(src_key)
        dst_node = self._bindings.get(dst_key)
        if src_node is None or dst_node is None:
            self.drops_no_route += 1
            return False

        if self.congestion is not None and self.congestion.drop():
            self.drops_congestion += 1
            return False

        if self.fault_plane is not None:
            drop, extra_delay, dup_frame = \
                self.fault_plane.link_disposition(frame)
            if drop:
                self.drops_fault += 1
                return False
            # The flat LAN applies wire delay/duplication at the one
            # link it has; here both land on the source access hop.
            if extra_delay > 0.0:
                self._in_flight += 1
                self.sim.schedule_detached(
                    extra_delay, self._inject, src_node, frame,
                    dst_key, dst_node)
                if dup_frame is not None:
                    self.dup_frames += 1
                    self._in_flight += 1
                    self.sim.schedule_detached(
                        extra_delay, self._inject, src_node,
                        dup_frame, dst_key, dst_node)
                return True
            if dup_frame is not None:
                self.dup_frames += 1
                self._in_flight += 1
                self._inject(src_node, dup_frame, dst_key, dst_node)

        self._in_flight += 1
        return self._inject(src_node, frame, dst_key, dst_node)

    # ------------------------------------------------------------------
    # Hop-by-hop machinery
    # ------------------------------------------------------------------
    def _inject(self, node: str, frame: Frame, dst_key: int,
                dst_node: str) -> bool:
        if node == dst_node:
            # Same-node delivery (two addresses of one multi-homed
            # host): no wire to cross.
            self._deliver(frame, dst_key)
            return True
        next_hop = self.routes[node].get(dst_node)
        if next_hop is None:
            self._in_flight -= 1
            self.drops_no_route += 1
            return False
        return self._ports[(node, next_hop)].enqueue(frame, dst_key)

    def _transmit(self, port: OutPort, frame: Frame, dst_key: int,
                  tx_time: float, extra_delay: float) -> None:
        """Complete one hop's transmission from *port*.

        The arrival lands ``tx_time + propagation + extra_delay``
        after now — scheduled locally when the receiving node is
        owned, exported through the shard boundary otherwise.  The
        exported timestamp is the absolute arrival time; propagation
        delay is what makes it strictly ahead of the sender's clock
        (the conservative lookahead).
        """
        link = port.link
        target = link.other(port.node)
        delay = tx_time + link.propagation + extra_delay
        if self._owned is None or target in self._owned:
            self.sim.schedule_detached(delay, self._arrive, target,
                                       frame, dst_key)
            return
        self._in_flight -= 1
        self.frames_exported += 1
        self._boundary(port.node, target, self.sim.now + delay,
                       frame, dst_key)

    def import_frame(self, time: float, node: str, frame: Frame,
                     dst_key: int) -> None:
        """Accept a frame exported by another shard: it arrives at
        owned *node* at absolute *time* (never earlier than the
        current clock — conservative sync guarantees it)."""
        self._in_flight += 1
        self.frames_imported += 1
        self.sim.schedule_at_detached(time, self._arrive, node, frame,
                                      dst_key)

    def _arrive(self, node: str, frame: Frame, dst_key: int) -> None:
        dst_node = self._bindings.get(dst_key)
        if node == dst_node:
            self._deliver(frame, dst_key)
            return
        next_hop = self.routes[node].get(dst_node) \
            if dst_node is not None else None
        if next_hop is None:
            self._in_flight -= 1
            self.drops_no_route += 1
            return
        port = self._ports[(node, next_hop)]
        trace = self.sim.trace
        if trace.enabled:
            trace.pkt_enqueue(port.name, flow_of(frame.packet))
        port.enqueue(frame, dst_key)

    def _deliver(self, frame: Frame, dst_key: int) -> None:
        self._in_flight -= 1
        self.frames_delivered += 1
        self._nics[dst_key].receive_frame(frame)

    def _count_drop(self, cause: str, frame: Frame) -> None:
        self._in_flight -= 1
        if cause == "port_queue":
            self.drops_port_queue += 1
        elif cause == "red":
            self.drops_red += 1
        else:
            self.drops_fault += 1
        trace = self.sim.trace
        if trace.enabled:
            trace.pkt_drop("switch", flow_of(frame.packet),
                           reason=f"sw_{cause}")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def build_routes(self) -> None:
        """(Re)compute every node's next-hop table: deterministic BFS
        by hop count from each destination host node, ties broken by
        the sorted-neighbour visit order."""
        switch_names = set(self.switches)
        host_nodes = [n for n in sorted(self._adjacency)
                      if n not in switch_names]
        self.routes = {node: {} for node in self._adjacency}
        for dst in host_nodes:
            # BFS outward from the destination; the first edge by
            # which a node is reached points back toward dst.
            frontier = deque([dst])
            parent = {dst: None}
            while frontier:
                node = frontier.popleft()
                for neighbour, _ in self._adjacency[node]:
                    if neighbour in parent:
                        continue
                    parent[neighbour] = node
                    frontier.append(neighbour)
            for node, towards in parent.items():
                if towards is not None:
                    self.routes[node][dst] = towards

    def forwarding_table(self, switch: str) -> Dict[str, str]:
        """A switch's table: destination host node -> egress neighbour."""
        return dict(self.routes[switch])

    # ------------------------------------------------------------------
    # Faults and accounting
    # ------------------------------------------------------------------
    def attach_link_fault_plane(self, a: str, b: str, plane) -> None:
        """Attach *plane* to the edge between nodes *a* and *b*."""
        for link in self.links:
            if {link.a, link.b} == {a, b}:
                link.fault_plane = plane
                return
        raise ValueError(f"no link between {a!r} and {b!r}")

    def total_drops(self) -> int:
        # Per-link ``drops_fault`` counters are a breakdown of the
        # topology-level ``drops_fault`` total, not an addition to it.
        return (self.drops_no_route + self.drops_port_queue
                + self.drops_red + self.drops_congestion
                + self.drops_fault)

    def in_flight(self) -> int:
        """Frames injected but not yet delivered or dropped."""
        return self._in_flight

    def conservation(self) -> Dict[str, int]:
        """Every injected frame accounted for: sent + duplicates +
        imported == delivered + drops(by cause) + in flight +
        exported.  The cross-shard terms are 0 in an unsharded world;
        summed over all shards they cancel, restoring the global
        invariant (asserted by the PDES parity tests)."""
        return {
            "sent": self.frames_sent,
            "duplicated": self.dup_frames,
            "delivered": self.frames_delivered,
            "drops_no_route": self.drops_no_route,
            "drops_port_queue": self.drops_port_queue,
            "drops_red": self.drops_red,
            "drops_congestion": self.drops_congestion,
            "drops_fault": self.drops_fault,
            "in_flight": self._in_flight,
            "exported": self.frames_exported,
            "imported": self.frames_imported,
        }

    def hop_stats(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Per-switch, per-port queue statistics."""
        return {name: switch.stats()
                for name, switch in sorted(self.switches.items())}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Topology {self.name!r} hosts="
                f"{len(self.spec.host_nodes())} "
                f"switches={len(self.switches)} "
                f"links={len(self.links)}>")
