"""Exact cost counters of a short Figure-3 point, per architecture.

Behaviour is pinned by the golden digests and the perfbench outputs;
this gate pins what the behaviour costs the simulator.  For each of
the seven receive architectures (Early-Demux included, which has no
golden), one 80 ms Figure-3 point at 20k pkts/s and seed 1 must fire
exactly ``events`` heap entries, run exactly ``slices`` CPU slices
over all cores, and put exactly ``frames`` frames on the fabric.

``slices`` and ``frames`` measure simulated work and must not move
unless the model changes.  ``events`` is an engine cost: a change
that removes events for the same behaviour lowers it here.  The
model's slice granularity is such a change: since every eager receive
stage (softnet, Early-Demux's software interrupt, the poll loop) is
one slice instead of one per step, 4.4BSD, Early-Demux, RSS and
Polling run fewer slices for the same time billed.
"""

import pytest

from repro.core import Architecture
from repro.engine import world as world_module
from repro.experiments import figure3

#: (architecture, server cores, flows): the perfbench udp_blast shapes.
SHAPES = {
    Architecture.BSD: (1, 1),
    Architecture.NI_LRP: (1, 1),
    Architecture.SOFT_LRP: (1, 1),
    Architecture.EARLY_DEMUX: (1, 1),
    Architecture.RSS: (4, 4),
    Architecture.POLLING: (2, 2),
    Architecture.NIC_OS: (4, 4),
}

#: Pinned at seed 1.  Events, for reference: before CPU slice
#: run-ahead and lazy transmit-done events 5228, 5345, 4540, 4128,
#: 7431, 17884, 5320; before pass-through switches were wires 3520,
#: 4094, 2989, 2724, 5944, 5965, 4071; before slice ends armed by any
#: callback ran ahead 2416, 3090, 1864, 1816, 5350, 5362, 3077;
#: before every slice end was armed (a CPU's own next slice end
#: became a heap entry whenever another core's held one was due
#: first) 1815, 3081, 1855, 1811, 4755, 5123, 3068; before each
#: eager receive stage was one slice 1804, 3081, 1855, 1804, 4751,
#: 5003, 3068 (slices 2834, 1710, 2093, 1731, 4750, 14905, 1699).
PINNED = {
    Architecture.BSD: dict(events=1546, slices=1616, frames=600),
    Architecture.NI_LRP: dict(events=3081, slices=1710, frames=600),
    Architecture.SOFT_LRP: dict(events=1855, slices=2093, frames=600),
    Architecture.EARLY_DEMUX: dict(events=1804, slices=1523, frames=600),
    Architecture.RSS: dict(events=3268, slices=2827, frames=597),
    Architecture.POLLING: dict(events=3350, slices=13122, frames=599),
    Architecture.NIC_OS: dict(events=3068, slices=1699, frames=597),
}


@pytest.mark.parametrize("arch", list(SHAPES), ids=lambda a: a.value)
def test_figure3_point_costs_are_pinned(arch, monkeypatch):
    worlds = []
    build = world_module.World.__init__

    def capture(world, *args, **kwargs):
        build(world, *args, **kwargs)
        worlds.append(world)

    monkeypatch.setattr(world_module.World, "__init__", capture)
    cores, flows = SHAPES[arch]
    point = figure3.run_point(arch, 20_000.0, warmup_usec=20_000.0,
                              window_usec=60_000.0, seed=1,
                              cores=cores, flows=flows)
    [world] = worlds
    costs = dict(
        events=point["events"],
        slices=sum(cpu.slices for host in world.hosts
                   for cpu in host.kernel.cpus),
        frames=world.network.conservation()["sent"])
    assert costs == PINNED[arch]
