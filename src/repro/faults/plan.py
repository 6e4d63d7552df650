"""Fault plans: declarative, schedulable, content-addressable.

Both classes are frozen dataclasses on purpose: the sweep cache's
``canonicalize`` reduces dataclasses to field dicts, so a ``FaultPlan``
passed as a sweep-point parameter participates in content addressing
(editing a plan invalidates exactly the points that used it) and
pickles unchanged into worker processes.

Layers and kinds
----------------
``layer="link"`` — applied by :meth:`repro.net.link.Network.send`:
    ``drop``       lose the frame on the wire (probability per frame);
    ``corrupt``    mark the packet corrupt so the receiver's checksum
                   step drops it.
``layer="nic"``:
    ``stall``      window during which matching NI channels (the LRP
                   family, Early-Demux, NIC-OS) stop accepting frames;
                   hosts without NI channels (4.4BSD, RSS, polling)
                   are unaffected.
``layer="mbuf"``:
    ``exhaust``    window during which ``magnitude`` buffers of every
                   attached host's mbuf pool are held in reserve.

``start_usec``/``end_usec`` bound when a rule is live (``end_usec=None``
means open-ended; ``inf`` is deliberately not used so plans stay
JSON-serializable).  ``probability`` gates per-packet rules;
``dst_port``/``proto`` restrict which packets (or channels) a rule
touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

LINK_KINDS = ("drop", "corrupt")
NIC_KINDS = ("stall",)
MBUF_KINDS = ("exhaust",)

_VALID = {"link": LINK_KINDS, "nic": NIC_KINDS, "mbuf": MBUF_KINDS}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault source."""

    layer: str
    kind: str
    start_usec: float = 0.0
    end_usec: Optional[float] = None
    probability: float = 1.0
    #: Buffers reserved by an mbuf exhaustion window.
    magnitude: float = 0.0
    #: Restrict to packets (or channels) with this destination port.
    dst_port: Optional[int] = None
    #: Restrict to this IP protocol number.
    proto: Optional[int] = None
    #: Label used in fault counters and RNG-stream derivation; defaults
    #: to ``<layer>.<kind>``.
    name: Optional[str] = None

    def __post_init__(self):
        kinds = _VALID.get(self.layer)
        if kinds is None:
            raise ValueError(f"unknown fault layer {self.layer!r}")
        if self.kind not in kinds:
            raise ValueError(
                f"unknown {self.layer} fault kind {self.kind!r} "
                f"(expected one of {kinds})")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.end_usec is not None and self.end_usec < self.start_usec:
            raise ValueError("end_usec precedes start_usec")

    @property
    def label(self) -> str:
        return self.name or f"{self.layer}.{self.kind}"

    def active(self, now: float) -> bool:
        """Whether the rule's window covers simulated time *now*."""
        if now < self.start_usec:
            return False
        return self.end_usec is None or now < self.end_usec


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus an ordered schedule of fault rules.

    Rule order matters: per-packet link rules are consulted in plan
    order, and a ``drop`` stops the walk: no later rule sees a dropped
    frame.
    """

    seed: int = 0
    rules: Tuple[FaultRule, ...] = field(default_factory=tuple)

    def __post_init__(self):
        # Tolerate lists for ergonomics; store a hashable tuple.
        object.__setattr__(self, "rules", tuple(self.rules))

    def layer_rules(self, layer: str) -> Tuple[Tuple[int, FaultRule], ...]:
        """``(plan_index, rule)`` pairs for one layer, in plan order."""
        return tuple((i, r) for i, r in enumerate(self.rules)
                     if r.layer == layer)

    @property
    def empty(self) -> bool:
        return not self.rules
