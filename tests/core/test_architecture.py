"""Tests for host construction and architecture selection."""

import pytest

from repro.engine import Simulator
from repro.net.link import Network
from repro.nic.programmable import ProgrammableNic
from repro.nic.simple import SimpleNic
from repro.core import (
    Architecture,
    BsdStack,
    EarlyDemuxStack,
    NiLrpStack,
    SoftLrpStack,
    build_host,
)
from repro.host.costs import DEFAULT_COSTS


@pytest.mark.parametrize("arch,stack_cls,nic_cls", [
    (Architecture.BSD, BsdStack, SimpleNic),
    (Architecture.EARLY_DEMUX, EarlyDemuxStack, SimpleNic),
    (Architecture.SOFT_LRP, SoftLrpStack, SimpleNic),
    (Architecture.NI_LRP, NiLrpStack, ProgrammableNic),
], ids=lambda x: getattr(x, "value", getattr(x, "__name__", x)))
def test_build_host_wires_components(arch, stack_cls, nic_cls):
    sim = Simulator()
    net = Network(sim)
    host = build_host(sim, net, "10.0.0.1", arch)
    assert isinstance(host.stack, stack_cls)
    assert isinstance(host.nic, nic_cls)
    assert host.kernel.stack is host.stack
    assert host.nic.stack is host.stack
    assert host.stack.arch_name == arch.value


def test_ni_lrp_shares_demux_table_with_nic():
    sim = Simulator()
    net = Network(sim)
    host = build_host(sim, net, "10.0.0.1", Architecture.NI_LRP)
    assert host.nic.table is host.stack.demux_table


def test_arch_accepts_string_values():
    sim = Simulator()
    net = Network(sim)
    host = build_host(sim, net, "10.0.0.1", "SOFT-LRP")
    assert isinstance(host.stack, SoftLrpStack)


def test_costs_flow_into_kernel_and_nic():
    sim = Simulator()
    net = Network(sim)
    costs = DEFAULT_COSTS.with_overrides(ni_demux=33.0,
                                         ni_service_gap=44.0)
    host = build_host(sim, net, "10.0.0.1", Architecture.NI_LRP,
                      costs=costs)
    assert host.kernel.costs.ni_demux == 33.0
    assert host.nic.demux_cost == 33.0
    assert host.nic.service_gap == 44.0


def test_accounting_policy_forwarded():
    sim = Simulator()
    net = Network(sim)
    host = build_host(sim, net, "10.0.0.1", Architecture.BSD,
                      accounting_policy="system")
    assert host.kernel.accounting.policy == "system"


def test_stack_kwargs_forwarded():
    sim = Simulator()
    net = Network(sim)
    host = build_host(sim, net, "10.0.0.1", Architecture.SOFT_LRP,
                      channel_depth=7, time_wait_usec=123.0,
                      redundant_pcb_lookup=True)
    assert host.stack.channel_depth == 7
    assert host.stack.time_wait_usec == 123.0
    assert host.stack.redundant_pcb_lookup


def test_two_hosts_share_network():
    sim = Simulator()
    net = Network(sim)
    a = build_host(sim, net, "10.0.0.1", Architecture.BSD)
    b = build_host(sim, net, "10.0.0.2", Architecture.SOFT_LRP)
    assert a.addr != b.addr
    assert net._nics  # both attached
    assert len(net._nics) == 2
