"""Switched multi-host topologies.

The flat :class:`~repro.net.link.Network` models the paper's testbed:
one LAN, every NIC one hop from every other.  This module generalizes
it to a *graph*: hosts and switches are nodes, :class:`Link` edges
carry per-edge bandwidth and propagation delay, and switches store and
forward frames through finite output queues.  The NIC-facing surface
(``attach``, ``send``, ``bandwidth``) is identical to
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
next-hop forwarding table at every node.  Switch output ports are
FIFO queues that drain at their link's bandwidth and tail-drop an
arriving frame when full, like the FIFO ports of the paper's ATM
switch.

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
inside* :meth:`OutPort._send`, so the owned-case schedule-call
order — and therefore every golden trace of an unsharded run — is
bit-identical to the pre-sharding code.  Conservation extends across
the cut: per-shard ledgers gain ``exported``/``imported`` counts and
the global invariant becomes ``sent + imported == delivered + drops +
in_flight + exported`` summed over shards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.simulator import Simulator
from repro.net.addr import IPAddr, addr_value
from repro.net.link import ATM_155_BITS_PER_USEC, CongestionKnee
from repro.net.packet import Frame
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
    """A store-and-forward switch node whose output ports each queue
    up to ``queue_frames`` frames (tail drop)."""

    name: str
    queue_frames: int = DEFAULT_PORT_QUEUE


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


def incast_client_addr(i: int) -> str:
    """The address of incast client *i* (``client{i}``)."""
    return f"10.0.0.{10 + i}"


def incast_spec(fan_in: int, server_addr: str = "10.0.0.1",
                queue_frames: int = DEFAULT_PORT_QUEUE,
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
        bindings.append(BindingSpec(incast_client_addr(i), node))
    return TopologySpec(
        name=f"incast-{fan_in}to1",
        switches=(SwitchSpec("sw0", queue_frames=queue_frames),),
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
    """A node's transmit port onto one link: a FIFO queue of
    ``(frame, dst_key)`` pairs, tail-dropping at *capacity*, served at
    the link's bandwidth.

    One pass per hop: a frame that finds the wire free and the queue
    empty goes onto the wire inside :meth:`enqueue`, without passing
    through the queue or :meth:`_service`.  Both paths put a frame on
    the wire with :meth:`_send`, so they make the same ``schedule`` and
    ``reserve`` calls in the same order.

    A port feeding a pass-through switch (``wire`` is that switch's
    other port) carries a frame across the switch when it can, with no
    arrival event there: see :meth:`_pass_through`.
    """

    __slots__ = ("topology", "node", "link", "neighbour", "local",
                 "capacity", "queue", "_busy", "_free", "enqueued",
                 "serviced", "drops_overflow", "peak_depth", "name",
                 "wire", "_hop")

    def __init__(self, topology: "Topology", node: str, link: Link,
                 capacity: int):
        self.topology = topology
        self.node = node
        self.link = link
        #: The node at the other end of the link, and whether it is
        #: owned (arrivals there are scheduled locally, not exported).
        self.neighbour = link.other(node)
        self.local = (topology._owned is None
                      or self.neighbour in topology._owned)
        self.capacity = capacity
        self.name = f"sw.{node}->{self.neighbour}"
        self.queue: Deque[Tuple[Frame, int]] = deque()
        self._busy = False
        #: Reserved key of the "wire free" event not scheduled because
        #: the queue was empty (see _send), or None.
        self._free = None
        self.enqueued = 0
        self.serviced = 0
        self.drops_overflow = 0
        self.peak_depth = 0
        #: The pass-through switch's port that every frame sent here
        #: leaves by (set by the topology), or None.
        self.wire: Optional["OutPort"] = None
        #: This port's latest scheduled arrival event: a frame
        #: passes through ``wire`` only once it has fired.
        self._hop = None

    @property
    def busy(self) -> bool:
        """Whether the port is serving: a frame is on the wire, or a
        service event is scheduled."""
        free = self._free
        if free is None:
            return self._busy
        return not self.topology.sim.passed(free)

    # ------------------------------------------------------------------
    def enqueue(self, frame: Frame, dst_key: int) -> bool:
        """Queue *frame* for transmission; False if it was dropped."""
        queue = self.queue
        if len(queue) >= self.capacity:
            self.drops_overflow += 1
            self.topology._count_drop("port_queue", frame)
            return False
        self.enqueued += 1
        free = self._free
        if free is not None:
            # Schedule the service at the reserved wire-free key if
            # it is still ahead; otherwise the wire is free already.
            self._free = None
            if not self.topology.sim.claim(free, self._service):
                self._busy = False
        if self._busy:
            queue.append((frame, dst_key))
            if len(queue) > self.peak_depth:
                self.peak_depth = len(queue)
            return True
        # The wire is free, so the queue is empty: the frame would be
        # queued and served at once.
        if not self.peak_depth:
            self.peak_depth = 1
        self.serviced += 1
        self._busy = True
        self._send(frame, dst_key)
        return True

    def _service(self) -> None:
        """Serve the next queued frame (the queue is non-empty)."""
        frame, dst_key = self.queue.popleft()
        self.serviced += 1
        self._send(frame, dst_key)

    def _send(self, frame: Frame, dst_key: int) -> None:
        """Put *frame* on the wire and settle the wire-free instant.

        The arrival lands ``tx_time + propagation`` after now —
        scheduled locally when the neighbour is owned, exported
        through the shard boundary otherwise (the exported timestamp
        is the absolute arrival time; propagation delay is what makes
        it strictly ahead of the sender's clock, the conservative
        lookahead).  As on a NIC
        (:meth:`~repro.nic.base.BaseNic._tx_next`), the next service
        is scheduled only if a frame is waiting; otherwise only its
        key is reserved and :meth:`enqueue` schedules it if a frame
        arrives before the wire frees.
        """
        link = self.link
        topo = self.topology
        sim = topo.sim
        tx_time = frame.wire_len * 8.0 / link.bandwidth
        if link.fault_plane is not None and \
                link.fault_plane.link_disposition(frame):
            link.drops_fault += 1
            topo._count_drop("fault", frame)
        else:
            link.frames += 1
            if self.local:
                delay = tx_time + link.propagation
                if self.wire is None or not self._pass_through(
                        sim.now + delay, frame, dst_key):
                    self._hop = sim.schedule(delay, topo._arrive,
                                             self.neighbour, frame,
                                             dst_key)
            else:
                topo._in_flight -= 1
                topo.frames_exported += 1
                topo._boundary(self.node, self.neighbour,
                               sim.now + (tx_time + link.propagation),
                               frame, dst_key)
        if self.queue:
            sim.schedule(tx_time, self._service)
        else:
            self._free = sim.reserve(sim.now + tx_time)

    def _pass_through(self, arrive: float, frame: Frame,
                      dst_key: int) -> bool:
        """Carry *frame*, due at the switch at *arrive*, out of the
        switch's port ``wire`` now, and return True; or return False,
        doing nothing, if its arrival there must be an event.

        The switch forwards every frame from this link out of
        ``wire``, and this port's frames reach it in FIFO order, so
        once this port's earlier arrival events have fired, ``wire``'s
        state at *arrive* follows from state it has now.  If its queue
        is empty and its wire frees strictly before *arrive*, the
        arrival would put the frame straight on that wire: this does
        the same, with the same counters, schedule and reserve calls,
        and times, through :meth:`Simulator.defer`, which reserves the
        arrival's own key in its place and sorts the calls as if that
        event had made them.
        """
        out = self.wire
        hop = self._hop
        if out.queue or (hop is not None and hop[3] is not None) \
                or out.link.fault_plane is not None:
            return False
        free = out._free
        if free is not None:
            if free[0] >= arrive:
                return False
        elif out._busy:
            return False
        link = out.link
        tx_time = frame.wire_len * 8.0 / link.bandwidth
        far = arrive + (tx_time + link.propagation)
        free_at = arrive + tx_time
        key = self.topology.sim.defer(
            arrive, far, self.topology._arrive,
            (out.neighbour, frame, dst_key), free_at)
        if key is None:
            return False
        out._free = key
        out._busy = True
        out.enqueued += 1
        out.serviced += 1
        if not out.peak_depth:
            out.peak_depth = 1
        link.frames += 1
        return True


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
                       self.spec.queue_frames)
        self.ports[neighbour] = port
        return port

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {port.name: {"enqueued": port.enqueued,
                            "serviced": port.serviced,
                            "drops_overflow": port.drops_overflow,
                            "peak_depth": port.peak_depth}
                for port in self.ports.values()}


class Topology:
    """A runtime graph of hosts, switches and links.

    Presents the :class:`~repro.net.link.Network` surface to NICs
    (``attach`` / ``send`` / ``bandwidth`` plus the
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
                        self, node, link, capacity=256)

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

        # A traced run keeps every switch arrival an event: the trace
        # records the hop there (pkt_enqueue).
        if not sim.trace.enabled:
            for feeder, out in self.pass_through_ports():
                feeder.wire = out

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
        self.drops_congestion = 0
        self.drops_fault = 0
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
        route, congestion-knee drop, source-side fault, full access
        queue); downstream hops drop asynchronously into the topology
        counters.
        """
        self.frames_sent += 1
        src_key = addr_value(src_addr)
        dst_key = (addr_value(frame.link_dst)
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

        if self.fault_plane is not None and \
                self.fault_plane.link_disposition(frame):
            self.drops_fault += 1
            return False

        self._in_flight += 1
        if src_node == dst_node:
            # Same-node delivery (two addresses of one multi-homed
            # host): no wire to cross.
            self._deliver(frame, dst_key)
            return True
        next_hop = self.routes[src_node].get(dst_node)
        if next_hop is None:
            self._in_flight -= 1
            self.drops_no_route += 1
            return False
        return self._ports[(src_node, next_hop)].enqueue(frame, dst_key)

    # ------------------------------------------------------------------
    # Hop-by-hop machinery
    # ------------------------------------------------------------------
    def import_frame(self, time: float, node: str, frame: Frame,
                     dst_key: int) -> None:
        """Accept a frame exported by another shard: it arrives at
        owned *node* at absolute *time* (never earlier than the
        current clock — conservative sync guarantees it)."""
        self._in_flight += 1
        self.frames_imported += 1
        self.sim.schedule_at(time, self._arrive, node, frame, dst_key)

    def _arrive(self, node: str, frame: Frame, dst_key: int) -> None:
        dst_node = self._bindings.get(dst_key)
        if node == dst_node:
            self._in_flight -= 1
            self.frames_delivered += 1
            self._nics[dst_key].receive_frame(frame)
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

    def pass_through_ports(self) -> List[Tuple[OutPort, OutPort]]:
        """``(feeder, out)`` port pairs across each pass-through
        switch: a switch with two links and room to queue a frame,
        which forwards every frame *feeder* sends it out of *out*.  A
        pair needs the switch and both its neighbours owned, so
        neither port exports frames across a shard cut."""
        pairs = []
        for name, switch in self.switches.items():
            links = self._adjacency[name]
            if len(links) != 2 or switch.spec.queue_frames < 1:
                continue
            for (src, _), (dst, _) in (links, links[::-1]):
                feeder = self._ports.get((src, name))
                out = self._ports[(name, dst)]
                if feeder is not None and out.local:
                    pairs.append((feeder, out))
        return pairs

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
                + self.drops_congestion + self.drops_fault)

    def in_flight(self) -> int:
        """Frames injected but not yet delivered or dropped."""
        return self._in_flight

    def conservation(self) -> Dict[str, int]:
        """Every injected frame accounted for: sent + imported ==
        delivered + drops(by cause) + in flight + exported.  The
        cross-shard terms are 0 in an unsharded world; summed over all
        shards they cancel, restoring the global invariant (asserted
        by the PDES parity tests)."""
        return {
            "sent": self.frames_sent,
            "delivered": self.frames_delivered,
            "drops_no_route": self.drops_no_route,
            "drops_port_queue": self.drops_port_queue,
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
