"""Shared machinery of the LRP architectures (SOFT-LRP and NI-LRP).

Both variants demultiplex early into per-socket NI channels and process
protocol input lazily at the receiver's priority; they differ only in
*where* the demux function runs (host interrupt handler vs. NIC
firmware).  This base class implements:

* NI channel lifecycle tied to socket binding (Section 3.1);
* the lazy UDP receive path — IP and UDP input run as generator frames
  inside ``recvfrom``, charged to the receiving process (Section 3.3);
* the minimal-priority kernel thread that performs protocol processing
  for queued UDP packets when the CPU would otherwise idle, so LRP
  does not add latency when the receiver is busy elsewhere
  (Section 3.3);
* the APP kernel process for asynchronous TCP processing at the
  receiver's priority (Section 3.4);
* listener-backlog feedback that disables channel processing so SYN
  floods are shed at the NI channel (Sections 3.4, 4.2);
* the soft demux function (``soft_demux``, also Early-Demux's) and
  channel notification routing (``wake_consumer``: receiver wakeup
  with interrupt suppression, APP notification, daemon wakeup), which
  NI-LRP's wakeup interrupt shares.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.engine.process import Block, Compute, Sleep, SimProcess, WaitChannel
from repro.net.addr import Endpoint, endpoint
from repro.net.ip import IPPROTO_TCP, IPPROTO_UDP, IpPacket
from repro.nic.channels import NiChannel
from repro.nic.demux import flow_key
from repro.core.app_thread import AppProcessor, PerProcessAppProcessor
from repro.core.stack_base import NetworkStack
from repro.sockets.socket import DGRAM, Socket
from repro.trace.tracer import flow_of

#: Poll period of the idle-priority protocol thread, microseconds.
IDLE_THREAD_POLL = 1_000.0
#: Pinned priority of the idle thread: numerically above (worse than)
#: the scheduler's entire [0, 127] range.
IDLE_THREAD_PRIORITY = 200.0


def registration(sock: Socket) -> Tuple[int, Optional[Endpoint]]:
    """How *sock* is registered for demux: ``(proto, peer)``.  A
    connected TCP socket has an exact entry for its *peer*; every
    other endpoint has a wildcard entry on its local port
    (``peer`` is None)."""
    if sock.stype == DGRAM:
        return IPPROTO_UDP, None
    return IPPROTO_TCP, sock.peer


class LrpStackBase(NetworkStack):
    """Common behaviour of SOFT-LRP and NI-LRP."""

    #: Whether protocol processing is deferred to the receiver: the
    #: APP process and the idle thread exist only on lazy stacks.
    lazy = True

    def __init__(self, *args, channel_depth: int = 50,
                 app_mode: str = "kernel-process", **kwargs):
        super().__init__(*args, **kwargs)
        self.channel_depth = channel_depth
        self.udp_channels: List[NiChannel] = []
        # The lazy UDP input's fixed steps, allocated once: a Compute
        # is read, never changed, by the context that runs it.
        self._ip_in = Compute(self.costs.ip_input)
        self._udp_in = Compute(self.costs.udp_input)
        self.app = None
        self.idle_thread: Optional[SimProcess] = None
        if not self.lazy:
            return
        #: Section 3.4 offers two APP placements: the prototype's
        #: single dedicated kernel process, or one thread per
        #: application process (the paper's preferred design).
        if app_mode == "kernel-process":
            self.app = AppProcessor(self)
        elif app_mode == "per-process":
            self.app = PerProcessAppProcessor(self)
        else:
            raise ValueError(f"unknown app_mode {app_mode!r}")
        self.idle_thread = self.kernel.spawn(
            "lrp-idle", self._idle_main(), nice=20, working_set_kb=8.0)
        # Truly minimal priority: below every application, even fully
        # decayed nice +20 spinners.
        self.idle_thread.fixed_priority = True
        self.idle_thread.usrpri = IDLE_THREAD_PRIORITY

    # ------------------------------------------------------------------
    # NI channel lifecycle (Section 3.1)
    # ------------------------------------------------------------------
    def endpoint_attached(self, sock: Socket) -> None:
        if sock.channel is None:
            kind = "udp" if sock.stype == DGRAM else "tcp"
            channel = NiChannel(f"ch-{sock.id}", depth=self.channel_depth,
                                kind=kind)
            channel.owner_socket = sock
            channel.wait_channel = WaitChannel(f"nichan-{sock.id}")
            if kind == "tcp":
                # TCP channels always interrupt on empty->non-empty:
                # the APP process must see segments promptly.
                channel.interrupts_requested = True
            sock.channel = channel
            if kind == "udp":
                self.udp_channels.append(channel)
        proto, peer = registration(sock)
        if peer is not None:
            self.demux_table.register_exact(
                flow_key(proto, sock.local.addr, sock.local.port,
                         peer.addr, peer.port), sock.channel)
        else:
            self.demux_table.register_wildcard(
                proto, sock.local.port, sock.channel)
        self.stats.incr("channels_created")

    def endpoint_detached(self, sock: Socket) -> None:
        channel = sock.channel
        if channel is None:
            return
        if sock.local is not None:
            proto, peer = registration(sock)
            if peer is not None:
                self.demux_table.unregister_exact(
                    flow_key(proto, sock.local.addr, sock.local.port,
                             peer.addr, peer.port))
            # A connected socket may still own the wildcard entry it
            # registered while bound or listening.
            self.demux_table.release_wildcard(proto, sock.local.port,
                                              channel)
        if channel in self.udp_channels:
            self.udp_channels.remove(channel)
        sock.channel = None

    def listener_backlog_changed(self, listener: Socket) -> None:
        """The Section 3.4 feedback: an over-backlog listener's channel
        stops accepting packets, so further SYNs are discarded at the
        NI (or demux handler) for free."""
        channel = listener.channel
        if channel is None:
            return
        enabled = not listener.backlog_full()
        if enabled != channel.processing_enabled:
            channel.processing_enabled = enabled

    def iter_channels(self):
        """Every live per-socket NI channel."""
        return (sock.channel for sock in self.sockets
                if sock.channel is not None)

    # ------------------------------------------------------------------
    # Soft demux and channel notification routing
    # ------------------------------------------------------------------
    def soft_demux(self, packet: IpPacket) -> Optional[NiChannel]:
        """The demux function run in the host's interrupt handler:
        *packet*'s NI channel, or None after counting and tracing the
        drop of a packet no endpoint claims."""
        channel = self.demux_table.demux(packet)[1]
        if channel is None:
            self.stats.incr("drop_demux_unmatched")
            if self.sim.trace.enabled:
                self.sim.trace.pkt_drop("demux", flow_of(packet),
                                        reason="unmatched")
        return channel

    def on_channel_filled(self, channel: NiChannel,
                          was_empty: bool) -> None:
        """The soft demux enqueued a packet; wake the consumer if it
        is owed a wakeup: the APP process on every TCP segment, a
        waiting receiver on the empty->non-empty transition, a
        waiting daemon on any arrival."""
        if channel.kind == "tcp" or (
                channel.interrupts_requested
                and (was_empty or channel.kind == "daemon")):
            self.wake_consumer(channel)

    def wake_consumer(self, channel: NiChannel) -> None:
        """Hand *channel*'s new packets to whoever processes them: TCP
        segments to the APP process, datagrams and daemon packets to
        the process blocked on the channel (interrupts off again until
        it next finds the channel empty)."""
        if channel.kind == "tcp":
            sock = channel.owner_socket
            if sock is not None:
                self.app.notify(sock, "input")
        elif channel.kind in ("udp", "daemon"):
            channel.interrupts_requested = False
            self.kernel.wake_one(channel.wait_channel)

    # ------------------------------------------------------------------
    # Lazy UDP receive (Section 3.3)
    # ------------------------------------------------------------------
    def recv_dgram_gen(self, proc: SimProcess, sock: Socket) -> Generator:
        while True:
            # Packets the idle thread already processed.
            item = sock.rcv_dgrams.pop()
            if item is not None:
                (dgram, stamp), src = item
                return (yield from self.deliver_to_app(
                    sock, dgram, src, stamp, self.costs.dequeue))
            channel = sock.channel
            packet = channel.pop() if channel is not None else None
            if packet is not None:
                yield self.channel_pop
                result = yield from self.lazy_udp_input(sock, packet)
                if result is None:
                    continue  # corrupt packet
                dgram, src, stamp = result
                # The channel pop above already paid for the dequeue.
                return (yield from self.deliver_to_app(
                    sock, dgram, src, stamp, 0.0))
            if channel is None:
                yield Block(sock.rcv_wait)
                continue
            # Nothing queued: request an interrupt and sleep.  No yield
            # occurs between the emptiness check and the flag store, so
            # there is no lost-wakeup window.
            channel.interrupts_requested = True
            yield Block(channel.wait_channel)

    def lazy_udp_input(self, sock: Socket,
                       packet: IpPacket) -> Generator:
        """IP + UDP input for one packet, in the caller's context.
        Returns ``(dgram, source, stamp)`` or ``None``."""
        yield self._ip_in
        self.stats.incr("ip_in")
        if packet.corrupt:
            yield from self.ip_input_checks(packet)
            return None
        if self.redundant_pcb_lookup:
            # Figure 5 fairness control: pay the BSD lookup cost even
            # though demux already identified the socket.
            yield Compute(self.costs.pcb_lookup)
            dgram = packet.transport
            self.udp_pcb.lookup(packet.dst, dgram.dst_port,
                                packet.src, dgram.src_port)
        dgram = packet.transport
        yield self._udp_in
        return (dgram, endpoint(packet.src, dgram.src_port),
                packet.stamp)

    def post_tcp_work(self, sock: Socket, kind: str) -> None:
        """TCP timers run in the APP process, at the receiver's
        priority and on the receiver's bill (Section 3.4)."""
        self.app.notify(sock, kind)

    # ------------------------------------------------------------------
    # Idle-priority protocol thread (Section 3.3)
    # ------------------------------------------------------------------
    def _idle_main(self) -> Generator:
        proc = self.idle_thread
        while True:
            processed = False
            for channel in list(self.udp_channels):
                sock = channel.owner_socket
                if sock is None or len(channel) == 0:
                    continue
                if sock.rcv_dgrams.full():
                    continue  # no room; leave packets on the channel
                packet = channel.pop()
                owner = sock.owner
                if proc is not None and owner is not None and owner.alive:
                    proc.charge_to = owner
                try:
                    yield self.channel_pop
                    result = yield from self.lazy_udp_input(sock, packet)
                finally:
                    if proc is not None:
                        proc.charge_to = None
                        proc.usrpri = IDLE_THREAD_PRIORITY
                if result is not None:
                    dgram, src, stamp = result
                    sock.rcv_dgrams.offer((dgram, stamp), src)
                    self.kernel.wake_one(sock.rcv_wait)
                processed = True
            if not processed:
                yield Sleep(IDLE_THREAD_POLL)
