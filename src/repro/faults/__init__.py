"""Deterministic, seed-driven fault injection.

A :class:`FaultPlan` declares *what* goes wrong and *when* — link-level
loss and corruption; NI-channel stalls; mbuf-pool exhaustion
windows — as a schedule of :class:`FaultRule` entries.  A
:class:`FaultPlane` executes one plan inside one simulation, drawing
every stochastic decision from per-rule RNG streams derived from the
plan seed (never from module or process-global state), so the same
plan on the same seed produces a byte-identical run whether it
executes serially, in a worker process, or out of the result cache.

See docs/FAULTS.md for the schema, per-layer hook points and
determinism rules.
"""

from repro.faults.plan import FaultPlan, FaultRule
from repro.faults.plane import FaultPlane

__all__ = ["FaultPlan", "FaultRule", "FaultPlane"]
