"""NIC-OS: LRP with the NIC deciding when the host runs.

NI-LRP already moved *demultiplexing* onto the adaptor; this stack
moves wakeup *policy* there too, following the "NIC should be part of
the OS" position: the :class:`~repro.nic.programmable.AgentNic`
firmware coalesces host interrupts until a channel holds a batch or a
latency bound expires.  NIC-OS is NI-LRP plus wakeup coalescing: its
drops under overload are the same NI-channel overflow discards.

The host-side stack is NI-LRP unchanged — lazy protocol processing in
the receiver's context, receiver-centric accounting — which makes the
comparison clean: any figure-3/degradation delta against NI-LRP is
attributable to the NIC's wakeup policy alone.
"""

from __future__ import annotations

from repro.nic.programmable import AgentNic
from repro.core.ni_lrp import NiLrpStack


class NicOsStack(NiLrpStack):
    """NI-LRP on an :class:`AgentNic` (requires one)."""

    arch_name = "NIC-OS"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.nic, AgentNic):
            raise TypeError("NIC-OS requires an AgentNic")
