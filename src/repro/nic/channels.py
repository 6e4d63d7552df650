"""NI channels (paper Section 3.1).

"A network interface (NI) channel is a data structure that is shared
between the network interface and the OS kernel.  It contains a
receiver queue, a free buffer queue, and associated state variables."

One channel exists per bound socket endpoint (UDP port, TCP listener,
or connected TCP flow), plus one for the IP-forwarding daemon on a
gateway.
The receive queue doubles as the early-discard feedback mechanism: when
the application stops consuming, the queue fills, and the NI (or soft
demux handler) silently drops further packets for this endpoint before
any host protocol processing is spent on them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.trace.tracer import flow_of

#: Default per-channel receive queue limit, in packets.  Matches the
#: BSD default socket-queue depth for datagram sockets.
DEFAULT_CHANNEL_DEPTH = 50


class NiChannel:
    """One endpoint's shared NI/kernel queue pair."""

    __slots__ = ("name", "depth", "queue", "owner_socket",
                 "interrupts_requested", "processing_enabled",
                 "enqueued", "discarded_full", "discarded_disabled",
                 "discarded_stalled", "stalled",
                 "wait_channel", "kind")

    def __init__(self, name: str, depth: int = DEFAULT_CHANNEL_DEPTH,
                 kind: str = "udp"):
        self.name = name
        self.depth = depth
        #: Routing class: "udp", "tcp" or "daemon"; decides who is
        #: notified when the channel becomes non-empty.
        self.kind = kind
        self.queue: Deque = deque()
        #: Back-reference to the owning socket (None for the daemon
        #: channel).
        self.owner_socket = None
        #: Set when a process is blocked waiting on this channel; the
        #: NI raises a host interrupt only on the empty->non-empty
        #: transition while this flag is set (Section 3.3).
        self.interrupts_requested = False
        #: Cleared when protocol processing is disabled for the
        #: endpoint (e.g. a listener over its backlog, Section 3.4);
        #: the NI then discards arriving packets outright.
        self.processing_enabled = True
        self.enqueued = 0
        self.discarded_full = 0
        self.discarded_disabled = 0
        #: Discards while the channel was stalled by fault injection —
        #: kept separate from capacity/feedback discards so experiments
        #: can tell induced faults from early-discard policy.
        self.discarded_stalled = 0
        #: Set by the fault plane during an NIC stall window.
        self.stalled = False
        #: Kernel wait channel for blocking receivers.
        self.wait_channel = None

    # ------------------------------------------------------------------
    def offer(self, item) -> bool:
        """Enqueue *item* if allowed; returns False on (early) discard.

        The discard costs the caller nothing — that is the point of
        early packet discard.
        """
        if self.stalled:
            self.discarded_stalled += 1
            return False
        if not self.processing_enabled:
            self.discarded_disabled += 1
            return False
        if len(self.queue) >= self.depth:
            self.discarded_full += 1
            return False
        self.queue.append(item)
        self.enqueued += 1
        return True

    def pop(self):
        """Dequeue the oldest packet, or None."""
        if self.queue:
            return self.queue.popleft()
        return None

    def __len__(self) -> int:
        return len(self.queue)

    def total_discards(self) -> int:
        """All discards regardless of cause (capacity, feedback
        disable, fault-injected stall)."""
        return (self.discarded_full + self.discarded_disabled
                + self.discarded_stalled)

    def discards_by_cause(self) -> dict:
        return {"full": self.discarded_full,
                "disabled": self.discarded_disabled,
                "stalled": self.discarded_stalled,
                "total": self.total_discards()}

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<NiChannel {self.name} {len(self.queue)}/{self.depth} "
                f"drops={self.total_discards()}>")


def enqueue(channel: NiChannel, packet, trace) -> bool:
    """The demux function's last step, wherever it runs (host
    interrupt or NIC firmware): offer *packet* to *channel* and trace
    the enqueue or the early discard with its cause.  Returns whether
    the packet was queued."""
    if channel.offer(packet):
        if trace.enabled:
            trace.pkt_enqueue("ni_channel", flow_of(packet))
        return True
    if trace.enabled:
        trace.pkt_drop("ni_channel", flow_of(packet),
                       reason=("stalled" if channel.stalled
                               else "disabled"
                               if not channel.processing_enabled
                               else "early_discard"))
    return False
