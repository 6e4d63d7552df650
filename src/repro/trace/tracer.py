"""Structured event tracing for the simulator and every layer above it.

A :class:`Tracer` records typed, timestamped events — scheduler
decisions, interrupt activity, per-queue packet movement, syscall
boundaries, TCP state transitions — into an in-memory ring buffer and,
optionally, a streaming JSONL sink.  The paper's claims (livelock
onset, drop attribution, fair CPU accounting) are causal chains of
exactly these events; the tracer makes the chains inspectable instead
of leaving only end-of-run aggregate counters.

Design constraints:

* **Zero cost when disabled.**  Every hot call site guards with
  ``tracer.enabled`` (a plain attribute load) and the emitters
  themselves early-return, so a disabled tracer adds one branch per
  instrumented operation.
* **Determinism.**  Records never contain process-global counters
  (socket ids, pids, TCP initial sequence numbers): two runs of the
  same seeded workload produce bit-identical traces regardless of what
  else ran earlier in the Python process.  This is what makes the
  golden-digest regression harness (:mod:`repro.trace.golden`) stable.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Any, Dict, Iterator, Optional

# ---------------------------------------------------------------------------
# Categories
# ---------------------------------------------------------------------------

#: Engine-level events (every callback the simulator fires).
CAT_ENGINE = "engine"
#: Interrupt lifecycle (raised at a CPU, first dispatched onto it).
CAT_INTR = "intr"
#: Scheduler decisions (real context switches).
CAT_SCHED = "sched"
#: Packet movement through named queues (ifq, ipq, rx_ring, ni_fifo,
#: ni_channel, sockq, app) including every drop with its reason.
CAT_PKT = "pkt"
#: Syscall boundaries, per process.
CAT_SYSCALL = "syscall"
#: TCP connection state transitions.
CAT_TCP = "tcp"
#: Fault injections (one record per fault applied to a packet).
CAT_FAULT = "fault"

CATEGORIES = (CAT_ENGINE, CAT_INTR, CAT_SCHED, CAT_PKT, CAT_SYSCALL,
              CAT_TCP, CAT_FAULT)


class TraceRecord:
    """One trace event: a sequence number, a timestamp, a category, a
    type, and a flat dict of string/number arguments."""

    __slots__ = ("seq", "t", "cat", "etype", "args")

    def __init__(self, seq: int, t: float, cat: str, etype: str,
                 args: Dict[str, Any]):
        self.seq = seq
        self.t = t
        self.cat = cat
        self.etype = etype
        self.args = args

    def to_dict(self) -> Dict[str, Any]:
        return {"seq": self.seq, "t": self.t, "cat": self.cat,
                "type": self.etype, "args": self.args}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def canonical(self) -> str:
        """A stable one-line rendering used for the order-sensitive
        digest.  Excludes ``seq`` (it always equals the record's
        position) and sorts argument keys."""
        args = ",".join(f"{k}={self.args[k]}"
                        for k in sorted(self.args))
        return f"{self.t!r}|{self.cat}|{self.etype}|{args}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TraceRecord #{self.seq} t={self.t:.3f} "
                f"{self.cat}/{self.etype} {self.args!r}>")


def flow_of(packet) -> str:
    """A stable flow label for an IP packet: ``src:sport>dst:dport/P``.

    Missing transport ports render as ``-`` (fragments, ICMP).  The
    label intentionally contains only wire-visible values, never
    process-global identifiers.
    """
    transport = getattr(packet, "transport", None)
    sport = getattr(transport, "src_port", None)
    dport = getattr(transport, "dst_port", None)
    sp = "-" if sport is None else str(sport)
    dp = "-" if dport is None else str(dport)
    return (f"{packet.src}:{sp}>{packet.dst}:{dp}"
            f"/{packet.proto}")


def callback_name(cb) -> str:
    """A stable display name for an event callback."""
    name = getattr(cb, "__qualname__", None)
    if name is not None:
        return name
    return type(cb).__name__


class Tracer:
    """Ring-buffered trace collector with typed emitters.

    Parameters
    ----------
    enabled:
        When False every emitter is a no-op (one branch).
    capacity:
        Ring-buffer size in records; ``None`` keeps everything (used
        by the golden-digest harness, which needs the full trace).
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = 65536):
        self.enabled = enabled
        self._buf: deque = deque(maxlen=capacity)
        self._seq = 0
        self._sim = None
        self._sink = None
        self._sink_owned = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, sim) -> None:
        """Bind to *sim*'s clock.  Called by ``Simulator.__init__``; a
        tracer shared by several sequential simulators simply follows
        the most recent one."""
        self._sim = sim

    def open_sink(self, path: str) -> None:
        """Stream every subsequent record to *path* as JSON lines (in
        addition to the ring buffer)."""
        self._sink = open(path, "w")
        self._sink_owned = True

    def close(self) -> None:
        if self._sink is not None and self._sink_owned:
            self._sink.close()
        self._sink = None
        self._sink_owned = False

    # ------------------------------------------------------------------
    # Core emit
    # ------------------------------------------------------------------
    def emit(self, cat: str, etype: str, **args: Any) -> None:
        if not self.enabled:
            return
        t = self._sim.now if self._sim is not None else 0.0
        rec = TraceRecord(self._seq, t, cat, etype, args)
        self._seq += 1
        self._buf.append(rec)
        if self._sink is not None:
            self._sink.write(rec.to_json() + "\n")

    # ------------------------------------------------------------------
    # Typed emitters (the record schema; see docs/TRACING.md)
    # ------------------------------------------------------------------
    def event_fired(self, fn: str) -> None:
        """The simulator fired a scheduled callback."""
        self.emit(CAT_ENGINE, "event_fired", fn=fn)

    def interrupt_raised(self, label: str, klass: str) -> None:
        """An interrupt task was posted to a CPU."""
        self.emit(CAT_INTR, "interrupt_raised", label=label, klass=klass)

    def interrupt_dispatched(self, label: str, klass: str) -> None:
        """An interrupt task first started executing."""
        self.emit(CAT_INTR, "interrupt_dispatched", label=label,
                  klass=klass)

    def context_switch(self, proc: str) -> None:
        """The scheduler switched the CPU to a different process."""
        self.emit(CAT_SCHED, "context_switch", proc=proc)

    def pkt_enqueue(self, queue: str, flow: str) -> None:
        """A packet entered the named queue."""
        self.emit(CAT_PKT, "pkt_enqueue", queue=queue, flow=flow)

    def pkt_drop(self, queue: str, flow: str, reason: str) -> None:
        """A packet was dropped at the named queue."""
        self.emit(CAT_PKT, "pkt_drop", queue=queue, flow=flow,
                  reason=reason)

    def pkt_deliver(self, queue: str, flow: str) -> None:
        """A packet reached its final consumer (socket queue or app)."""
        self.emit(CAT_PKT, "pkt_deliver", queue=queue, flow=flow)

    def syscall_enter(self, proc: str, name: str) -> None:
        self.emit(CAT_SYSCALL, "syscall_enter", proc=proc, name=name)

    def syscall_exit(self, proc: str, name: str) -> None:
        self.emit(CAT_SYSCALL, "syscall_exit", proc=proc, name=name)

    def tcp_state_change(self, flow: str, old: str, new: str) -> None:
        self.emit(CAT_TCP, "tcp_state_change", flow=flow, old=old,
                  new=new)

    def fault_injected(self, layer: str, kind: str, flow: str) -> None:
        """The fault plane applied a per-packet fault."""
        self.emit(CAT_FAULT, "fault_injected", layer=layer, kind=kind,
                  flow=flow)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buf)

    def __bool__(self) -> bool:
        # Despite __len__, an empty tracer is still a tracer.
        return True

    def records(self, cat: Optional[str] = None,
                etype: Optional[str] = None,
                flow: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate buffered records, optionally filtered by category,
        event type, and/or flow-label substring."""
        for rec in self._buf:
            if cat is not None and rec.cat != cat:
                continue
            if etype is not None and rec.etype != etype:
                continue
            if flow is not None and flow not in str(
                    rec.args.get("flow", "")):
                continue
            yield rec

    def clear(self) -> None:
        self._buf.clear()
        self._seq = 0

    # ------------------------------------------------------------------
    # Export and digest
    # ------------------------------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        """Write all buffered records to *path*; returns the count."""
        n = 0
        with open(path, "w") as out:
            for rec in self._buf:
                out.write(rec.to_json() + "\n")
                n += 1
        return n

    def digest(self) -> Dict[str, Any]:
        """Reduce the buffered trace to a stable digest: per-event-type
        counts plus an order-sensitive SHA-256 over the canonical
        rendering of every record."""
        counts: Dict[str, int] = {}
        hasher = hashlib.sha256()
        n = 0
        for rec in self._buf:
            counts[rec.etype] = counts.get(rec.etype, 0) + 1
            hasher.update(rec.canonical().encode("utf-8"))
            hasher.update(b"\n")
            n += 1
        return {"n": n,
                "counts": dict(sorted(counts.items())),
                "order_hash": hasher.hexdigest()}


#: Shared disabled tracer: the default for every Simulator, so call
#: sites can unconditionally read ``sim.trace.enabled``.
NULL_TRACER = Tracer(enabled=False, capacity=0)


# ---------------------------------------------------------------------------
# Process-wide default tracer (used by the experiments CLI's --trace
# flag: experiments construct their own Simulators internally, and the
# default lets one tracer capture all of them).
# ---------------------------------------------------------------------------

_default_tracer: Optional[Tracer] = None


def set_default_tracer(tracer: Optional[Tracer]) -> None:
    """Install *tracer* as the default for subsequently constructed
    Simulators (pass ``None`` to clear)."""
    global _default_tracer
    _default_tracer = tracer


def get_default_tracer() -> Optional[Tracer]:
    return _default_tracer
