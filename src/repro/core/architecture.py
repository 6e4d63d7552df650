"""Architecture selection and host construction.

``build_host`` assembles a complete simulated machine — kernel, NIC,
and network stack — for any of the four architectures the paper
evaluates, attached to a shared :class:`~repro.net.link.Network`.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.engine.simulator import Simulator
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.kernel import Kernel
from repro.net.link import Network
from repro.nic.demux import DemuxTable
from repro.nic.polling import PollingNic
from repro.nic.programmable import AgentNic, ProgrammableNic
from repro.nic.simple import SimpleNic
from repro.core.bsd_stack import BsdStack, RssStack
from repro.core.early_demux import EarlyDemuxStack
from repro.core.ni_lrp import NiLrpStack
from repro.core.nic_os import NicOsStack
from repro.core.polling_stack import PollingStack
from repro.core.soft_lrp import SoftLrpStack


class Architecture(enum.Enum):
    """The four kernels of the paper's evaluation, plus the three
    modern stacks of the six-architecture comparison
    (docs/ARCHITECTURES.md)."""

    BSD = "4.4BSD"
    EARLY_DEMUX = "Early-Demux"
    SOFT_LRP = "SOFT-LRP"
    NI_LRP = "NI-LRP"
    RSS = "RSS"
    POLLING = "Polling"
    NIC_OS = "NIC-OS"


STACK_CLASSES = {
    Architecture.BSD: BsdStack,
    Architecture.EARLY_DEMUX: EarlyDemuxStack,
    Architecture.SOFT_LRP: SoftLrpStack,
    Architecture.NI_LRP: NiLrpStack,
    Architecture.RSS: RssStack,
    Architecture.POLLING: PollingStack,
    Architecture.NIC_OS: NicOsStack,
}

#: The modern stacks beyond the paper's four: multi-core hosts whose
#: NIC differs from the paper's (RSS takes a SimpleNic with one queue
#: per core; the others a polling or policy-running adaptor).
MODERN_ARCHES = (Architecture.RSS, Architecture.POLLING,
                 Architecture.NIC_OS)


class Host:
    """A complete simulated machine."""

    def __init__(self, kernel: Kernel, nic, stack, addr):
        self.kernel = kernel
        self.nic = nic
        self.stack = stack
        self.addr = addr
        self.name = kernel.name

    @property
    def sim(self) -> Simulator:
        return self.kernel.sim

    def spawn(self, name, main, **kwargs):
        return self.kernel.spawn(name, main, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name} {self.addr} {self.stack.arch_name}>"


def build_host(sim: Simulator, network: Network, addr,
               arch: Architecture = Architecture.BSD,
               costs: CostModel = DEFAULT_COSTS,
               accounting_policy: str = "interrupted",
               name: Optional[str] = None,
               fault_plane=None,
               cores: int = 1,
               **stack_kwargs) -> Host:
    """Assemble a host running the given architecture's kernel.

    *cores* is the number of :class:`~repro.host.cpu.Cpu` cores.  The
    paper's four architectures ignore extra cores (their single-queue
    NICs interrupt core 0, as on real pre-RSS hardware); RSS steers
    receive queues across all of them; polling requires ``cores >= 2``
    and dedicates the last core to busy-polling.

    Passing a :class:`~repro.faults.plane.FaultPlane` opts this host
    into NIC/mbuf fault rules (link rules apply network-wide via
    :meth:`FaultPlane.attach_network`).
    """
    arch = Architecture(arch)
    if arch == Architecture.POLLING and cores < 2:
        raise ValueError(
            "the polling architecture dedicates one core to "
            "busy-polling; build it with cores >= 2")
    kernel = Kernel(sim, costs=costs,
                    accounting_policy=accounting_policy,
                    name=name or f"host-{addr}",
                    ncores=cores,
                    enable_ticks=arch is not Architecture.POLLING)
    if arch == Architecture.NI_LRP:
        # The stack and the NIC share the channel/demux table — that is
        # the defining property of NI demux.
        demux_table = DemuxTable()
        nic = ProgrammableNic(sim, network, addr, demux_table,
                              demux_cost=costs.ni_demux,
                              service_gap=costs.ni_service_gap)
        stack = NiLrpStack(kernel, nic, addr, demux_table=demux_table,
                           **stack_kwargs)
    elif arch == Architecture.NIC_OS:
        demux_table = DemuxTable()
        nic = AgentNic(sim, network, addr, demux_table,
                       demux_cost=costs.ni_demux,
                       service_gap=costs.ni_service_gap)
        stack = NicOsStack(kernel, nic, addr, demux_table=demux_table,
                           **stack_kwargs)
    elif arch == Architecture.RSS:
        nic = SimpleNic(sim, network, addr, queues=cores)
        stack = RssStack(kernel, nic, addr, **stack_kwargs)
    elif arch == Architecture.POLLING:
        nic = PollingNic(sim, network, addr)
        stack = PollingStack(kernel, nic, addr, **stack_kwargs)
    else:
        nic = SimpleNic(sim, network, addr)
        stack_cls = STACK_CLASSES[arch]
        stack = stack_cls(kernel, nic, addr, **stack_kwargs)
    kernel.nic = nic
    host = Host(kernel, nic, stack, addr)
    if fault_plane is not None:
        fault_plane.attach_host(host)
    return host
