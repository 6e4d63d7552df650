"""Network addresses and endpoints."""

from __future__ import annotations

from typing import NamedTuple


class IPAddr:
    """A 32-bit IPv4 address with dotted-quad parsing/printing."""

    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, IPAddr):
            self.value = value.value
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"address out of range: {value!r}")
            self.value = value
        elif isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"bad dotted quad: {value!r}")
            acc = 0
            for part in parts:
                octet = int(part)
                if not 0 <= octet <= 255:
                    raise ValueError(f"bad octet in {value!r}")
                acc = (acc << 8) | octet
            self.value = acc
        else:
            raise TypeError(f"cannot make IPAddr from {value!r}")

    def __eq__(self, other) -> bool:
        if type(other) is IPAddr:
            return self.value == other.value
        if isinstance(other, (int, str)):
            return self.value == IPAddr(other).value
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __str__(self) -> str:
        v = self.value
        return f"{v >> 24 & 255}.{v >> 16 & 255}.{v >> 8 & 255}.{v & 255}"

    def __repr__(self) -> str:
        return f"IPAddr({str(self)!r})"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(4, "big")


def addr_value(addr) -> int:
    """The 32-bit value of *addr* (an :class:`IPAddr`, int or dotted
    quad), without building an :class:`IPAddr` for one already made."""
    return addr.value if type(addr) is IPAddr else IPAddr(addr).value


#: The unspecified address (INADDR_ANY).
ANY_ADDR = IPAddr(0)


class Endpoint(NamedTuple):
    """A transport endpoint: (address, port)."""

    addr: IPAddr
    port: int

    def __str__(self) -> str:
        return f"{self.addr}:{self.port}"


def endpoint(addr, port: int) -> Endpoint:
    """Convenience constructor with validation."""
    if not 0 <= port <= 65535:
        raise ValueError(f"bad port {port!r}")
    return Endpoint(addr if type(addr) is IPAddr else IPAddr(addr), port)
