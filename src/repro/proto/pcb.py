"""Protocol control block tables (BSD ``inpcb``).

The conventional stacks locate the destination socket of an incoming
packet with a PCB lookup during protocol processing; LRP's early demux
replaces this (the Figure 3 kernels "bypassed UDP's PCB lookup, as in
the LRP kernels", and the Figure 5 LRP kernel "performed a redundant
PCB lookup to eliminate any bias").  The table supports exact
(connected) and wildcard (bound/listening) matches, and port
allocation for implicit binds.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.addr import ANY_ADDR, IPAddr, addr_value

PcbKey = Tuple[int, int, int, int]  # laddr, lport, faddr, fport

#: First ephemeral port (BSD IPPORT_RESERVED..IPPORT_USERRESERVED).
EPHEMERAL_BASE = 1024
EPHEMERAL_MAX = 65535


class PortInUse(Exception):
    pass


class PcbTable:
    """One protocol's (UDP's or TCP's) control-block table."""

    def __init__(self) -> None:
        self._exact: Dict[PcbKey, object] = {}
        self._wildcard: Dict[int, object] = {}   # lport -> socket
        self._next_ephemeral = EPHEMERAL_BASE
        self.lookups = 0

    # ------------------------------------------------------------------
    def bind(self, sock, laddr: IPAddr, lport: int) -> None:
        if lport in self._wildcard:
            raise PortInUse(f"port {lport} in use")
        self._wildcard[lport] = sock

    def connect(self, sock, laddr: IPAddr, lport: int,
                faddr: IPAddr, fport: int) -> None:
        key = (addr_value(laddr), lport, addr_value(faddr), fport)
        if key in self._exact:
            raise PortInUse(f"4-tuple {key} in use")
        self._exact[key] = sock

    def alloc_port(self) -> int:
        for _ in range(EPHEMERAL_MAX - EPHEMERAL_BASE):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > EPHEMERAL_MAX:
                self._next_ephemeral = EPHEMERAL_BASE
            if port not in self._wildcard:
                return port
        raise PortInUse("ephemeral ports exhausted")

    def unbind(self, lport: int) -> None:
        self._wildcard.pop(lport, None)

    def disconnect(self, laddr: IPAddr, lport: int,
                   faddr: IPAddr, fport: int) -> None:
        self._exact.pop(
            (addr_value(laddr), lport, addr_value(faddr), fport), None)

    # ------------------------------------------------------------------
    def lookup(self, laddr: IPAddr, lport: int,
               faddr: IPAddr, fport: int):
        """BSD in_pcblookup: exact match first, then wildcard."""
        self.lookups += 1
        sock = self._exact.get(
            (addr_value(laddr), lport, addr_value(faddr), fport))
        if sock is not None:
            return sock
        return self._wildcard.get(lport)

    @property
    def size(self) -> int:
        return len(self._exact) + len(self._wildcard)
