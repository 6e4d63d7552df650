"""Socket objects.

A :class:`Socket` is the kernel-side endpoint state shared by every
network-subsystem architecture; the architectures differ in how data
reaches it (shared IP queue + software interrupts vs. per-socket NI
channels + lazy processing), which is stack code, not socket code.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from typing import Any, Deque, Optional

from repro.engine.process import SimProcess, WaitChannel
from repro.net.addr import ANY_ADDR, Endpoint, IPAddr
from repro.sockets.sockbuf import (
    DEFAULT_DGRAM_DEPTH,
    DEFAULT_STREAM_HIWAT,
    DatagramQueue,
    StreamBuffer,
)

_sock_ids = itertools.count(1)


class SocketError(Exception):
    """Errors surfaced to applications from socket syscalls."""


class SockType(enum.Enum):
    DGRAM = "dgram"     # UDP
    STREAM = "stream"   # TCP


# As module constants: an enum member read is a metaclass attribute
# lookup, and the receive paths read a socket's type per packet.
DGRAM = SockType.DGRAM
STREAM = SockType.STREAM


class Socket:
    """One communication endpoint."""

    def __init__(self, stype: SockType,
                 owner: Optional[SimProcess] = None,
                 rcv_depth: int = DEFAULT_DGRAM_DEPTH,
                 rcv_hiwat: int = DEFAULT_STREAM_HIWAT,
                 snd_hiwat: int = DEFAULT_STREAM_HIWAT):
        self.id = next(_sock_ids)
        self.stype = stype
        #: The receiving process; LRP charges protocol processing here
        #: and schedules it at this process's priority.
        self.owner = owner
        self.local: Optional[Endpoint] = None
        self.peer: Optional[Endpoint] = None
        self.closed = False

        # Receive side.
        if stype == DGRAM:
            self.rcv_dgrams = DatagramQueue(rcv_depth)
            self.rcv_stream = None
        else:
            self.rcv_dgrams = None
            self.rcv_stream = StreamBuffer(rcv_hiwat)
        self.snd_stream = (StreamBuffer(snd_hiwat)
                           if stype == STREAM else None)

        # Blocking support.
        self.rcv_wait = WaitChannel(f"so{self.id}-rcv")
        self.snd_wait = WaitChannel(f"so{self.id}-snd")
        self.accept_wait = WaitChannel(f"so{self.id}-acc")

        # TCP listener state.
        self.listening = False
        self.backlog = 0
        self.accept_queue: Deque["Socket"] = deque()
        #: Half-open (SYN_RCVD) connections counted against backlog.
        self.incomplete = 0

        #: Protocol control block (TcpConnection for streams).
        self.pcb: Any = None
        #: NI channel assigned under LRP architectures.
        self.channel: Any = None

    # ------------------------------------------------------------------
    def trace_flow(self, src: Optional[Endpoint] = None) -> str:
        """A stable trace label for traffic arriving at this socket:
        ``src:sport>local:lport/proto``.  Mirrors
        :func:`repro.trace.flow_of` but is built from endpoint state,
        for paths where the original packet is no longer in hand.
        Contains no process-global identifiers (trace determinism)."""
        proto = 17 if self.stype == DGRAM else 6
        local = (f"{self.local.addr}:{self.local.port}"
                 if self.local is not None else "?:-")
        origin = src if src is not None else self.peer
        remote = (f"{origin.addr}:{origin.port}"
                  if origin is not None else "*:-")
        return f"{remote}>{local}/{proto}"

    @property
    def bound(self) -> bool:
        return self.local is not None

    @property
    def connected(self) -> bool:
        return self.peer is not None

    def backlog_full(self) -> bool:
        """True when the sum of completed and half-open connections has
        reached the listen backlog (BSD uses ``3 * backlog / 2``)."""
        limit = self.backlog + (self.backlog >> 1)
        return (len(self.accept_queue) + self.incomplete) >= max(1, limit)

    def __repr__(self) -> str:  # pragma: no cover
        where = f" {self.local}" if self.local else ""
        peer = f"->{self.peer}" if self.peer else ""
        return f"<Socket#{self.id} {self.stype.value}{where}{peer}>"
