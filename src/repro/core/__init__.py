"""The paper's contribution: the four network-subsystem architectures.

The public entry point is :func:`build_host`, which assembles a
simulated machine running one of the four kernels the paper evaluates
(:class:`Architecture`).  The cost calibration shared by every
experiment lives in :mod:`repro.host.costs` and is re-exported here.
"""

from repro.core.app_thread import AppProcessor
from repro.core.architecture import (
    Architecture,
    Host,
    MODERN_ARCHES,
    STACK_CLASSES,
    build_host,
)
from repro.core.bsd_stack import BsdStack, RssStack
from repro.core.early_demux import EarlyDemuxStack
from repro.core.forwarding import (
    ForwardingDaemon,
    build_gateway,
    enable_forwarding,
)
from repro.core.lrp_base import LrpStackBase
from repro.core.ni_lrp import NiLrpStack
from repro.core.nic_os import NicOsStack
from repro.core.polling_stack import PollingStack
from repro.core.soft_lrp import SoftLrpStack
from repro.core.stack_base import NetworkStack
from repro.host.costs import DEFAULT_COSTS, CostModel

__all__ = [
    "AppProcessor",
    "Architecture",
    "BsdStack",
    "CostModel",
    "DEFAULT_COSTS",
    "EarlyDemuxStack",
    "ForwardingDaemon",
    "Host",
    "LrpStackBase",
    "MODERN_ARCHES",
    "NetworkStack",
    "NiLrpStack",
    "NicOsStack",
    "PollingStack",
    "RssStack",
    "STACK_CLASSES",
    "SoftLrpStack",
    "build_gateway",
    "build_host",
    "enable_forwarding",
]
