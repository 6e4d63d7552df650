"""Workload generation: raw packet injectors and scenario helpers."""

from repro.workloads.adversarial import BurstyUdpBlaster
from repro.workloads.sources import (
    InjectorPort,
    RawSynInjector,
    RawUdpInjector,
)

__all__ = ["InjectorPort", "RawSynInjector", "RawUdpInjector",
           "BurstyUdpBlaster"]
