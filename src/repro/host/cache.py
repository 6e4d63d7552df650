"""A coarse cache-locality model.

Table 2 of the paper attributes part of LRP's throughput advantage to
"reduced context switching and improved memory access locality".  To
let that effect emerge we track, per process, how much of its working
set is resident in the (single, shared) off-chip cache:

* while a process runs it re-establishes residency at a fixed touch
  rate and, once the cache is over-committed, evicts other processes'
  lines proportionally;
* interrupt handlers pollute a small amount per activation;
* when a process is switched in, the non-resident part of its hot
  working set is repaid as a CPU penalty (cache refill time).

The SPARCstation 20 model 61 of the paper has a 1 MB unified L2; the
Table 2 worker's working set "covers a significant fraction (35%)" of
it.  The model is deliberately simple — occupancy, not reuse-distance —
because only the *relative* penalty between architectures matters.
"""

from __future__ import annotations

from typing import List

from repro.engine.process import SimProcess
from repro.host.costs import CostModel


class CacheModel:
    """Shared-cache occupancy tracking for a set of processes."""

    def __init__(self, costs: CostModel, size_kb: float = 1024.0):
        self.costs = costs
        self.size_kb = size_kb
        self._procs: List[SimProcess] = []
        #: The registered process when there is exactly one, else None.
        self._lone = None
        self.total_refill_usec = 0.0

    def register(self, proc: SimProcess) -> None:
        proc.cache_resident_kb = 0.0
        # working_set_kb is fixed at spawn time, so the hot-set bound
        # is computed once here instead of per on_run/switch_penalty.
        proc.cache_hot_kb = min(proc.working_set_kb, self.size_kb)
        self._procs.append(proc)
        self._note_lone()

    def unregister(self, proc: SimProcess) -> None:
        if proc in self._procs:
            self._procs.remove(proc)
            self._note_lone()

    def _note_lone(self) -> None:
        procs = self._procs
        self._lone = procs[0] if len(procs) == 1 else None

    # ------------------------------------------------------------------
    def on_run(self, proc: SimProcess, usec: float) -> None:
        """Account for *proc* touching its working set for *usec*."""
        hot = proc.cache_hot_kb
        resident = proc.cache_resident_kb
        if resident >= hot:
            return  # fully warm: grow would equal resident, delta 0
        # min(hot, ...) twice, spelled out (this runs per slice).
        touched = usec * self.costs.cache_touch_kb_per_usec
        if hot < touched:
            touched = hot
        grow = resident + touched
        if hot < grow:
            grow = hot
        delta = grow - resident
        if delta > 0:
            proc.cache_resident_kb = grow
            self._evict(delta, exclude=proc)

    def on_interrupt_pollution(self, intr_usec: float) -> None:
        """Interrupt handlers displace everyone's cache state in
        proportion to the CPU time they consumed (heavier handlers —
        BSD's full protocol processing — touch more data than LRP's
        tiny demux function).

        Unlike capacity eviction this is *conflict* eviction: the
        handler's lines land on top of victim lines regardless of how
        full the cache is, so the eviction is unconditional, spread
        over residents in proportion to what each holds.

        Runs once per interrupt slice; the resident scan and the pool
        sum are fused into one pass.  A lone registered process takes
        the whole eviction: its share ``kb / pool`` is exactly 1.0, so
        skipping the scan changes no bit.
        """
        lone = self._lone
        if lone is not None:
            kb = lone.cache_resident_kb
            if kb > 0.0:
                evict = self.costs.intr_pollution_kb_per_usec * intr_usec
                if kb < evict:
                    evict = kb
                kb -= evict
                lone.cache_resident_kb = kb if kb > 0.0 else 0.0
            return
        residents = []
        append = residents.append
        pool = 0.0
        for p in self._procs:
            kb = p.cache_resident_kb
            if kb > 0.0:
                append(p)
                pool += kb
        if not residents:
            return
        evict = self.costs.intr_pollution_kb_per_usec * intr_usec
        if pool < evict:
            evict = pool
        for p in residents:
            kb = p.cache_resident_kb - evict * (p.cache_resident_kb / pool)
            p.cache_resident_kb = kb if kb > 0.0 else 0.0

    def switch_penalty(self, proc: SimProcess) -> float:
        """CPU microseconds needed to re-warm *proc*'s hot set."""
        missing = proc.cache_hot_kb - proc.cache_resident_kb
        if missing <= 0.0:
            return 0.0
        penalty = missing * self.costs.cache_refill_per_kb
        self.total_refill_usec += penalty
        return penalty

    # ------------------------------------------------------------------
    def _evict(self, amount_kb: float, exclude) -> None:
        """Evict *amount_kb*, spread over other residents, but only to
        the extent the cache is actually over-committed."""
        residents = []
        append = residents.append
        pool = 0.0
        for p in self._procs:
            if p is not exclude:
                kb = p.cache_resident_kb
                if kb > 0.0:
                    append(p)
                    pool += kb
        if not residents:
            return
        total = pool
        if exclude is not None:
            total += exclude.cache_resident_kb
        overflow = total + amount_kb - self.size_kb
        # min(amount_kb, max(0.0, overflow)), spelled out.
        evict = overflow if overflow < amount_kb else amount_kb
        if evict <= 0.0:
            return
        for p in residents:
            kb = p.cache_resident_kb - evict * (p.cache_resident_kb / pool)
            p.cache_resident_kb = kb if kb > 0.0 else 0.0
