"""Simulated host: CPU, interrupts, scheduler, accounting, kernel."""

from repro.host.accounting import Accounting, core_usage
from repro.host.cache import CacheModel
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.cpu import Cpu
from repro.host.interrupts import (
    HARDWARE,
    PROCESS,
    SOFTWARE,
    InterruptContextError,
    IntrTask,
    SimpleIntrTask,
)
from repro.host.kernel import Kernel, KernelPanic, ProcContext
from repro.host.scheduler import (
    PUSER,
    TICK_USEC,
    Scheduler,
    priority_for,
)

__all__ = [
    "Accounting",
    "CacheModel",
    "CostModel",
    "Cpu",
    "DEFAULT_COSTS",
    "HARDWARE",
    "InterruptContextError",
    "IntrTask",
    "Kernel",
    "KernelPanic",
    "PROCESS",
    "ProcContext",
    "PUSER",
    "Scheduler",
    "SOFTWARE",
    "SimpleIntrTask",
    "TICK_USEC",
    "core_usage",
    "priority_for",
]
