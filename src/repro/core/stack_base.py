"""The architecture-independent part of the network subsystem.

Every kernel variant (4.4BSD, Early-Demux, SOFT-LRP, NI-LRP) shares:

* the socket syscall surface (``socket``/``bind``/``listen``/
  ``connect``/``accept``/``send``/``recv``/``sendto``/``recvfrom``/
  ``close``), registered on the host kernel;
* the transmit path ("the transmit side processing remains largely
  unchanged", Section 3.3) — UDP/IP output and TCP output run in the
  context of the process performing the send system call;
* the TCP state machine (:mod:`repro.proto.tcp_proto`) and the
  machinery that applies its actions (emitting segments, arming
  timers, waking waiters, completing handshakes, TIME_WAIT cleanup).

* the receive steps every eager or lazy path runs somewhere: the
  checksum drop of a corrupt packet, the final socket-queue enqueue,
  and the copy-out to the application.

Subclasses decide *where receive processing happens and who pays for
it* — the whole subject of the paper:

* :meth:`rx_interrupt` — the body of the device interrupt for a frame;
* :meth:`recv_dgram_gen` — the receive-syscall path for UDP (default:
  BSD's, which only drains the socket queue);
* :meth:`post_tcp_work` — the execution context for asynchronous TCP
  events (incoming segments, retransmit timers; default: BSD's
  software interrupt).
"""

from __future__ import annotations

from typing import Generator, Iterable, List, Optional

from repro.engine.process import Block, Compute, SimProcess
from repro.host.interrupts import SOFTWARE, IntrTask
from repro.host.kernel import Kernel
from repro.mem.pool import MbufPool
from repro.net.addr import IPAddr, addr_value, endpoint
from repro.net.ip import IP_HEADER_LEN, IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.net.packet import Frame
from repro.net.tcp import SYN, TcpSegment
from repro.net.udp import UDP_HEADER_LEN, UdpDatagram
from repro.nic.channels import NiChannel
from repro.nic.demux import DemuxTable
from repro.proto.pcb import PcbTable, PortInUse
from repro.proto.tcp_proto import (
    HANDSHAKE_TIMEOUT,
    TIME_WAIT_DEFAULT,
    TcpActions,
    TcpConnection,
)
from repro.proto.tcp_states import CLOSED, ESTABLISHED, SYN_RCVD, TIME_WAIT
from repro.sockets.socket import DGRAM, STREAM, Socket, SockType, SocketError
from repro.stats.metrics import Counter
from repro.trace.tracer import flow_of

#: Classical-IP-over-ATM MTU, as on the paper's testbed; ``sendto``
#: refuses a UDP datagram that does not fit in it.
DEFAULT_MTU = 9180


class NetworkStack:
    """Base class for the four kernel variants."""

    arch_name = "base"

    def __init__(self, kernel: Kernel, nic, local_addr,
                 time_wait_usec: float = TIME_WAIT_DEFAULT,
                 redundant_pcb_lookup: bool = False,
                 demux_table: Optional[DemuxTable] = None):
        self.kernel = kernel
        self.sim = kernel.sim
        self.costs = kernel.costs
        self.nic = nic
        self.addr = IPAddr(local_addr)
        self.mbufs = MbufPool()
        self.time_wait_usec = time_wait_usec
        #: Figure 5 control: LRP kernels optionally perform a redundant
        #: PCB lookup so measured gains cannot be attributed to demux
        #: efficiency alone.
        self.redundant_pcb_lookup = redundant_pcb_lookup

        #: The step of dequeueing from an NI channel (NI-LRP adds
        #: free-buffer replenishment on top of the base dequeue),
        #: allocated once: a Compute is read, never changed.
        self.channel_pop = Compute(self.costs.dequeue)
        #: Addresses this host answers to (multi-homed gateways add
        #: more via :meth:`add_interface_address`).
        self.local_addrs = {self.addr.value}
        #: Next hop for destinations outside the local /24 subnets.
        self.gateway: Optional[IPAddr] = None
        #: Routers set this; see repro.core.forwarding.
        self.forwarding_enabled = False
        self.udp_pcb = PcbTable()
        self.tcp_pcb = PcbTable()
        #: Endpoint table for early demux (LRP family); NI-LRP shares
        #: this object with the programmable NIC's firmware.
        self.demux_table = (demux_table if demux_table is not None
                            else DemuxTable())
        # The demux function needs to recognize non-local destinations
        # (forwarding, Section 3.5); share the address set.
        self.demux_table.local_addrs = self.local_addrs
        self.stats = Counter()
        #: Latency bookkeeping hooks filled by experiments.
        self.sockets: List[Socket] = []

        kernel.stack = self
        if nic is not None:
            nic.stack = self
        self._register_syscalls()

    # ------------------------------------------------------------------
    # Syscall registration
    # ------------------------------------------------------------------
    def _register_syscalls(self) -> None:
        k = self.kernel
        k.register_syscall("socket", self._sys_socket)
        k.register_syscall("bind", self._sys_bind)
        k.register_syscall("listen", self._sys_listen)
        k.register_syscall("connect", self._sys_connect)
        k.register_syscall("accept", self._sys_accept)
        k.register_syscall("sendto", self._sys_sendto)
        k.register_syscall("recvfrom", self._sys_recvfrom)
        k.register_syscall("send", self._sys_send)
        k.register_syscall("recv", self._sys_recv)
        k.register_syscall("close", self._sys_close)

    # ------------------------------------------------------------------
    # Architecture hooks
    # ------------------------------------------------------------------
    def rx_interrupt(self, frame: Frame, ring_release, core: int):
        """Build the device-interrupt task for *frame*, which arrived
        on the receive queue wired to core *core* (SimpleNic stacks).
        Must be overridden unless the NIC never interrupts per
        frame."""
        raise NotImplementedError

    def recv_dgram_gen(self, proc: SimProcess, sock: Socket) -> Generator:
        """Generator implementing the UDP receive path: wait on the
        socket queue, which eager input fills."""
        while True:
            item = sock.rcv_dgrams.pop()
            if item is not None:
                (dgram, stamp), src = item
                return (yield from self.deliver_to_app(
                    sock, dgram, src, stamp, self.costs.dequeue))
            yield Block(sock.rcv_wait)

    def post_tcp_work(self, sock: Socket, kind: str) -> None:
        """Arrange for asynchronous TCP work (*kind* is ``"input"``,
        ``"rexmt"`` or ``"persist"``) to run in the architecture's
        chosen context: here a software interrupt on the boot core,
        billed to whatever it interrupts."""

        def body() -> Generator:
            yield Compute(self.costs.sw_intr_dispatch)
            yield from self.tcp_timer_gen(sock, kind)

        self.kernel.cpu.post(
            IntrTask(body(), SOFTWARE, f"tcp-{kind}"))

    def endpoint_attached(self, sock: Socket) -> None:
        """Called when a socket gains a local/foreign binding; LRP
        variants create and register NI channels here."""

    def endpoint_detached(self, sock: Socket) -> None:
        """Called when a socket's binding is torn down."""

    def listener_backlog_changed(self, listener: Socket) -> None:
        """Called whenever a listener's backlog occupancy changes; LRP
        disables channel processing for over-backlog listeners
        (Section 3.4)."""

    # ------------------------------------------------------------------
    # Socket syscalls (shared)
    # ------------------------------------------------------------------
    def _sys_socket(self, kernel, proc, stype="udp", rcv_depth=None,
                    rcv_hiwat=None, snd_hiwat=None):
        kwargs = {}
        if rcv_depth is not None:
            kwargs["rcv_depth"] = rcv_depth
        if rcv_hiwat is not None:
            kwargs["rcv_hiwat"] = rcv_hiwat
        if snd_hiwat is not None:
            kwargs["snd_hiwat"] = snd_hiwat
        if not isinstance(stype, SockType):
            aliases = {"udp": DGRAM, "dgram": DGRAM,
                       "tcp": STREAM, "stream": STREAM}
            try:
                stype = aliases[str(stype).lower()]
            except KeyError:
                raise SocketError(f"unknown socket type {stype!r}")
        sock = Socket(stype, owner=proc, **kwargs)
        self.sockets.append(sock)
        return sock

    def _sys_bind(self, kernel, proc, sock: Socket, port: int):
        if sock.stype == DGRAM:
            self.udp_pcb.bind(sock, self.addr, port)
        else:
            self.tcp_pcb.bind(sock, self.addr, port)
        sock.local = endpoint(self.addr, port)
        sock.owner = proc
        self.endpoint_attached(sock)
        return 0

    def _sys_listen(self, kernel, proc, sock: Socket, backlog: int = 5):
        if sock.stype != STREAM:
            raise SocketError("listen on a datagram socket")
        if not sock.bound:
            raise SocketError("listen before bind")
        sock.listening = True
        sock.backlog = backlog
        self.listener_backlog_changed(sock)
        return 0

    def _sys_connect(self, kernel, proc, sock: Socket, addr, port: int):
        if sock.stype == DGRAM:
            sock.peer = endpoint(addr, port)
            if not sock.bound:
                lport = self.udp_pcb.alloc_port()
                self.udp_pcb.bind(sock, self.addr, lport)
                sock.local = endpoint(self.addr, lport)
                sock.owner = proc
                self.endpoint_attached(sock)
            return 0
        return self._connect_stream(kernel, proc, sock, addr, port)

    def _connect_stream(self, kernel, proc, sock, addr, port):
        def body():
            if not sock.bound:
                lport = self.tcp_pcb.alloc_port()
                sock.local = endpoint(self.addr, lport)
            sock.peer = endpoint(addr, port)
            self.tcp_pcb.connect(sock, sock.local.addr, sock.local.port,
                                 sock.peer.addr, sock.peer.port)
            sock.owner = proc
            conn = TcpConnection(sock, sock.local, sock.peer,
                                 time_wait_usec=self.time_wait_usec)
            conn.trace_hook = self._trace_tcp_state
            sock.pcb = conn
            self.endpoint_attached(sock)
            yield Compute(self.costs.tcp_output)
            actions = conn.open_active(self.sim.now)
            yield from self.apply_tcp_actions(sock, actions)
            while conn.state not in (ESTABLISHED, CLOSED):
                yield Block(sock.rcv_wait)
            if conn.state == CLOSED:
                return -1
            return 0
        return body()

    # The kernel treats generator-function handlers specially; for
    # `connect` we need both behaviours, so the handler itself is a
    # plain function returning an iterator and we register a wrapper.
    def _sys_accept(self, kernel, proc, sock: Socket):
        def body():
            while not sock.accept_queue:
                if not sock.listening:
                    raise SocketError("accept on a non-listening socket")
                yield Block(sock.accept_wait)
            child = sock.accept_queue.popleft()
            child.owner = proc
            if child.channel is not None:
                child.channel.name = f"{child.channel.name}*"
            self.listener_backlog_changed(sock)
            yield Compute(self.costs.socket_enqueue)
            return child
        return body()

    # -- UDP ------------------------------------------------------------
    def _sys_sendto(self, kernel, proc, sock: Socket, nbytes: int,
                    addr=None, port: int = 0, payload=None):
        # Bad arguments raise here, before the send costs anything, so
        # the kernel delivers the error to the caller.
        if nbytes + UDP_HEADER_LEN + IP_HEADER_LEN > DEFAULT_MTU:
            raise SocketError(
                f"{nbytes}-byte datagram exceeds the {DEFAULT_MTU}-byte"
                " MTU (IP fragmentation is not modelled)")
        if addr is None:
            if not sock.connected:
                raise SocketError("sendto without destination")
            dst = sock.peer
        else:
            dst = endpoint(addr, port)

        def body():
            if not sock.bound:
                lport = self.udp_pcb.alloc_port()
                self.udp_pcb.bind(sock, self.addr, lport)
                sock.local = endpoint(self.addr, lport)
                sock.owner = proc
                self.endpoint_attached(sock)
            cost = (self.costs.copy_cost(nbytes) + self.costs.mbuf_alloc
                    + self.costs.udp_output + self.costs.ip_output)
            yield Compute(cost)
            dgram = UdpDatagram(sock.local.port, dst.port,
                                payload=payload, payload_len=nbytes)
            self.ip_output(dgram, dst.addr, IPPROTO_UDP, dgram.total_len)
            return nbytes
        return body()

    def _sys_recvfrom(self, kernel, proc, sock: Socket):
        return self.recv_dgram_gen(proc, sock)

    # -- TCP data -------------------------------------------------------
    def _sys_send(self, kernel, proc, sock: Socket, nbytes: int):
        def body():
            conn: TcpConnection = sock.pcb
            if conn is None:
                raise SocketError("send on an unconnected socket")
            sock.owner = proc  # APP follows whoever uses the socket
            remaining = nbytes
            while remaining > 0:
                if conn.state == CLOSED:
                    return -1
                space = sock.snd_stream.space
                if space <= 0:
                    yield Block(sock.snd_wait)
                    continue
                chunk = min(space, remaining)
                yield Compute(self.costs.copy_cost(chunk)
                              + self.costs.mbuf_alloc)
                sock.snd_stream.put(chunk)
                remaining -= chunk
                actions = conn.app_send(self.sim.now)
                yield from self.apply_tcp_actions(sock, actions)
            return nbytes
        return body()

    def _sys_recv(self, kernel, proc, sock: Socket, max_bytes: int = 65536):
        def body():
            conn: TcpConnection = sock.pcb
            if conn is None:
                raise SocketError("recv on an unconnected socket")
            sock.owner = proc  # APP follows whoever uses the socket
            while True:
                available = sock.rcv_stream.used
                if available > 0:
                    n = sock.rcv_stream.take(min(max_bytes, available))
                    yield Compute(self.costs.copy_cost(n)
                                  + self.costs.mbuf_free)
                    actions = conn.app_recv_window_update()
                    yield from self.apply_tcp_actions(sock, actions)
                    return n
                if conn.fin_rcvd or conn.state in (CLOSED, TIME_WAIT):
                    return 0
                yield Block(sock.rcv_wait)
        return body()

    def _sys_close(self, kernel, proc, sock: Socket):
        def body():
            if sock.closed:
                return 0
            sock.closed = True
            if sock.stype == DGRAM:
                self._teardown_dgram(sock)
                return 0
            if sock.listening:
                sock.listening = False
                if sock.local is not None:
                    self.tcp_pcb.unbind(sock.local.port)
                self.endpoint_detached(sock)
                return 0
            conn: TcpConnection = sock.pcb
            if conn is None or conn.state == CLOSED:
                self._teardown_stream(sock)
                return 0
            yield Compute(self.costs.tcp_output)
            actions = conn.app_close(self.sim.now)
            yield from self.apply_tcp_actions(sock, actions)
            return 0
        return body()

    def _teardown_dgram(self, sock: Socket) -> None:
        if sock.local is not None:
            self.udp_pcb.unbind(sock.local.port)
        self.endpoint_detached(sock)

    def _teardown_stream(self, sock: Socket) -> None:
        if sock.local is not None and sock.peer is not None:
            self.tcp_pcb.disconnect(sock.local.addr, sock.local.port,
                                    sock.peer.addr, sock.peer.port)
        self.endpoint_detached(sock)

    # ------------------------------------------------------------------
    # Routing and IP output (shared transmit path)
    # ------------------------------------------------------------------
    def add_interface_address(self, addr) -> None:
        """Attach an additional local address (multi-homed gateway).
        The same NIC answers for it on the LAN model."""
        addr = IPAddr(addr)
        self.local_addrs.add(addr.value)
        self.nic.network.attach(self.nic, addr)

    def set_gateway(self, addr) -> None:
        """Route foreign-subnet traffic via *addr* (an end host's
        default route)."""
        self.gateway = IPAddr(addr)

    def is_local_addr(self, addr) -> bool:
        return addr_value(addr) in self.local_addrs

    def link_dst_for(self, dst) -> Optional[IPAddr]:
        """The link-layer next hop for *dst*, or None for direct
        delivery.  Subnets are /24 in this model."""
        if self.gateway is None:
            return None
        dst24 = IPAddr(dst).value >> 8
        if any(dst24 == (local >> 8) for local in self.local_addrs):
            return None
        return self.gateway

    def ip_output(self, transport, dst: IPAddr, proto: int,
                  payload_len: int) -> None:
        """Encapsulate and hand to the NIC.  CPU cost is charged by the
        caller (it differs by context); this just moves the packet."""
        packet = IpPacket(self.addr, dst, proto, transport, payload_len)
        packet.stamp = self.sim.now
        self.stats.incr("ip_out")
        frame = Frame(packet, link_dst=self.link_dst_for(dst))
        if not self.nic.transmit(frame):
            self.stats.incr("drop_ifq")

    def forward_packet(self, packet: IpPacket) -> None:
        """Re-emit a transit packet toward its destination (the
        caller has already charged CPU and handled TTL)."""
        link_dst = self.link_dst_for(packet.dst)
        frame = Frame(packet, link_dst=link_dst)
        if not self.nic.transmit(frame):
            self.stats.incr("drop_ifq")

    # ------------------------------------------------------------------
    # TCP shared machinery
    # ------------------------------------------------------------------
    def apply_tcp_actions(self, sock: Socket,
                          actions: TcpActions) -> Generator:
        """Apply a :class:`TcpActions`; a generator so segment emission
        costs land in whatever context invoked the state machine."""
        conn: TcpConnection = sock.pcb
        # Transmit all segments before yielding: protocol state updates
        # and their emissions must be atomic with respect to other TCP
        # contexts (BSD guarantees this with splnet; without it, a
        # send-syscall segment could be overtaken by a segment built in
        # a software interrupt, reordering the flow).  The CPU cost is
        # charged immediately afterwards.
        total_cost = 0.0
        for seg in actions.outputs:
            total_cost += self.costs.tcp_output + self.costs.ip_output
            self.ip_output(seg, conn.peer.addr, IPPROTO_TCP,
                           seg.total_len)
        if total_cost > 0.0:
            yield Compute(total_cost)

        # A single event may both cancel (the ACK emptied the window)
        # and re-arm (new data went out immediately after); arming
        # always wins.
        if actions.set_rexmt is not None:
            self._arm_timer(sock, "rexmt", actions.set_rexmt)
        elif actions.cancel_rexmt:
            self._cancel_timer(sock, "rexmt")
        if actions.set_persist is not None:
            self._arm_timer(sock, "persist", actions.set_persist)
        elif actions.cancel_persist:
            self._cancel_timer(sock, "persist")

        if actions.wake_receiver:
            self.kernel.wake_all(sock.rcv_wait)
        if actions.wake_sender:
            self.kernel.wake_all(sock.snd_wait)
        if actions.connected:
            self.kernel.wake_all(sock.rcv_wait)

        if actions.new_established is not None:
            self._handshake_complete(sock)
        if actions.enter_time_wait is not None:
            self._enter_time_wait(sock, actions.enter_time_wait)
        if actions.closed:
            self._conn_closed(sock)

    def _handshake_complete(self, child_sock: Socket) -> None:
        conn: TcpConnection = child_sock.pcb
        listener: Socket = conn.listener
        if listener is None:
            return
        listener.incomplete = max(0, listener.incomplete - 1)
        listener.accept_queue.append(child_sock)
        child_sock._accepted = True
        self.stats.incr("tcp_established")
        self.kernel.wake_one(listener.accept_wait)
        self.listener_backlog_changed(listener)

    def _enter_time_wait(self, sock: Socket, hold: float) -> None:
        # LRP deallocates the NI channel as soon as the connection
        # enters TIME_WAIT (Section 4.2 discussion on scaling).
        self.endpoint_detached(sock)
        self.sim.schedule(hold, self._time_wait_expired, sock)

    def _time_wait_expired(self, sock: Socket) -> None:
        conn: TcpConnection = sock.pcb
        if conn is not None and conn.state == TIME_WAIT:
            conn.set_state(CLOSED)
            self._conn_closed(sock)

    def _conn_closed(self, sock: Socket) -> None:
        self._cancel_timer(sock, "rexmt")
        self._cancel_timer(sock, "persist")
        conn: TcpConnection = sock.pcb
        if conn is not None and conn.listener is not None \
                and conn.state == CLOSED:
            listener: Socket = conn.listener
            if not getattr(sock, "_accepted", False):
                # A half-open child died (RST / handshake failure):
                # release its backlog slot.
                listener.incomplete = max(0, listener.incomplete - 1)
                self.listener_backlog_changed(listener)
        self._teardown_stream(sock)
        self.kernel.wake_all(sock.rcv_wait)
        self.kernel.wake_all(sock.snd_wait)

    def _trace_tcp_state(self, conn: TcpConnection, old, new) -> None:
        """Installed as ``TcpConnection.trace_hook`` on every
        connection this stack creates; emits a ``tcp_state_change``
        record per transition."""
        trace = self.sim.trace
        if not trace.enabled:
            return
        flow = (f"{conn.local.addr}:{conn.local.port}"
                f">{conn.peer.addr}:{conn.peer.port}")
        trace.tcp_state_change(flow,
                               old.name if old is not None else "NONE",
                               new.name)

    # -- TCP timers -------------------------------------------------------
    def _arm_timer(self, sock: Socket, kind: str, delay: float) -> None:
        self._cancel_timer(sock, kind)
        event = self.sim.schedule(delay, self._timer_fired, sock, kind)
        setattr(sock, f"_{kind}_event", event)

    def _cancel_timer(self, sock: Socket, kind: str) -> None:
        event = getattr(sock, f"_{kind}_event", None)
        if event is not None:
            self.sim.cancel(event)
            setattr(sock, f"_{kind}_event", None)

    def _timer_fired(self, sock: Socket, kind: str) -> None:
        setattr(sock, f"_{kind}_event", None)
        conn: TcpConnection = sock.pcb
        if conn is None or conn.state == CLOSED:
            return
        self.post_tcp_work(sock, kind)

    def tcp_timer_gen(self, sock: Socket, kind: str) -> Generator:
        """Run the timer body (context chosen by the subclass)."""
        conn: TcpConnection = sock.pcb
        if conn is None or conn.state == CLOSED:
            return
        yield Compute(self.costs.tcp_output)
        if kind == "rexmt":
            actions = conn.rexmt_timeout(self.sim.now)
            self.stats.incr("tcp_rexmt_timeouts")
        else:
            actions = conn.persist_timeout(self.sim.now)
        yield from self.apply_tcp_actions(sock, actions)

    # -- TCP input --------------------------------------------------------
    def tcp_input_gen(self, sock: Socket, packet: IpPacket) -> Generator:
        """Process one TCP segment for *sock* (any context)."""
        seg: TcpSegment = packet.transport
        if packet.corrupt:
            # TCP always verifies (checksumming is mandatory); the cost
            # is charged only on the failing path so fault-free runs
            # keep their historical timing.
            yield from self._checksum_drop(packet, seg.payload_len, "tcp")
            return
        if sock.listening:
            yield from self._listener_input_gen(sock, packet, seg)
            return
        conn: TcpConnection = sock.pcb
        if conn is None:
            self.stats.incr("drop_tcp_no_conn")
            return
        yield Compute(self.costs.tcp_input)
        actions = conn.segment_arrives(seg, self.sim.now)
        yield from self.apply_tcp_actions(sock, actions)

    def _listener_input_gen(self, listener: Socket, packet: IpPacket,
                            seg: TcpSegment) -> Generator:
        if not seg.flags & SYN:
            self.stats.incr("drop_tcp_listener_nonsyn")
            return
        yield Compute(self.costs.tcp_syn_processing)
        self.stats.incr("tcp_syn_in")
        if listener.backlog_full():
            self.stats.incr("drop_syn_backlog")
            self.listener_backlog_changed(listener)
            return
        child = Socket(STREAM, owner=listener.owner,
                       rcv_hiwat=listener.rcv_stream.hiwat
                       if listener.rcv_stream else 32768)
        child.local = endpoint(self.addr, seg.dst_port)
        child.peer = endpoint(packet.src, seg.src_port)
        conn = TcpConnection(child, child.local, child.peer,
                             time_wait_usec=self.time_wait_usec)
        conn.trace_hook = self._trace_tcp_state
        conn.open_passive(listener)
        child.pcb = conn
        self.sockets.append(child)
        try:
            self.tcp_pcb.connect(child, child.local.addr, child.local.port,
                                 child.peer.addr, child.peer.port)
        except PortInUse:
            self.stats.incr("drop_syn_dup")
            return
        listener.incomplete += 1
        self.endpoint_attached(child)
        self.listener_backlog_changed(listener)
        self.sim.schedule(HANDSHAKE_TIMEOUT, self._handshake_expired,
                          listener, child)
        actions = conn.passive_syn(seg, self.sim.now)
        yield from self.apply_tcp_actions(child, actions)

    def _handshake_expired(self, listener: Socket, child: Socket) -> None:
        conn: TcpConnection = child.pcb
        if conn is None or conn.state != SYN_RCVD:
            return
        conn.set_state(CLOSED)
        self.stats.incr("tcp_handshake_expired")
        listener.incomplete = max(0, listener.incomplete - 1)
        self._cancel_timer(child, "rexmt")
        self._teardown_stream(child)
        self.listener_backlog_changed(listener)

    # ------------------------------------------------------------------
    # Shared receive steps
    # ------------------------------------------------------------------
    def ip_input_checks(self, packet: IpPacket) -> Generator:
        """The checksum step of IP input for a corrupt *packet*, in the
        caller's context: charge the failed verification and drop it.
        Callers enter only for ``packet.corrupt``, so clean packets pay
        no extra frame."""
        return self._checksum_drop(packet, packet.payload_len, "ip")

    def _checksum_drop(self, packet: IpPacket, nbytes: int,
                       stage: str) -> Generator:
        """Charge the failed verification over *nbytes* and drop
        *packet* at *stage*."""
        yield Compute(self.costs.checksum_cost(nbytes))
        self.stats.incr("drop_corrupt")
        if self.sim.trace.enabled:
            self.sim.trace.pkt_drop(stage, flow_of(packet),
                                    reason="bad_checksum")

    def deliver_to_app(self, sock: Socket, dgram: UdpDatagram, src,
                       stamp: float, cost: float) -> Generator:
        """Last step of a UDP receive syscall: charge *cost* plus the
        copy-out, account the delivery and return the ``recvfrom``
        result ``(dgram, src, stamp)``."""
        yield Compute(cost + self.costs.copy_cost(dgram.payload_len)
                      + self.costs.mbuf_free)
        self.stats.incr("udp_delivered")
        if self.sim.trace.enabled:
            self.sim.trace.pkt_deliver("app", sock.trace_flow(src))
        return dgram, src, stamp

    def udp_deliver_to_socket(self, sock: Socket,
                              packet: IpPacket) -> bool:
        """Final UDP step: queue the datagram on the socket.  Returns
        False when its queue was full (the BSD late drop)."""
        dgram: UdpDatagram = packet.transport
        trace = self.sim.trace
        if sock.rcv_dgrams.offer((dgram, packet.stamp),
                                 endpoint(packet.src, dgram.src_port)):
            if trace.enabled:
                trace.pkt_deliver("sockq", flow_of(packet))
            self.kernel.wake_one(sock.rcv_wait)
            return True
        self.stats.incr("drop_sockq")
        if trace.enabled:
            trace.pkt_drop("sockq", flow_of(packet), reason="sockq_full")
        return False

    # ------------------------------------------------------------------
    # Introspection used by fault injection and stats reports
    # ------------------------------------------------------------------
    def iter_channels(self) -> Iterable[NiChannel]:
        """All NI channels this stack owns (none for the conventional
        architectures; overridden by the LRP family)."""
        return ()
