"""Protocol machinery: PCBs and TCP."""

from repro.proto.pcb import PcbTable, PortInUse
from repro.proto.tcp_proto import (
    DEFAULT_MSS,
    HANDSHAKE_TIMEOUT,
    RTO_INIT,
    RTO_MIN,
    TIME_WAIT_DEFAULT,
    TcpActions,
    TcpConnection,
    next_iss,
)
from repro.proto.tcp_states import SYNCHRONIZED, TcpState

__all__ = [
    "DEFAULT_MSS",
    "HANDSHAKE_TIMEOUT",
    "PcbTable",
    "PortInUse",
    "RTO_INIT",
    "RTO_MIN",
    "SYNCHRONIZED",
    "TIME_WAIT_DEFAULT",
    "TcpActions",
    "TcpConnection",
    "TcpState",
    "next_iss",
]
