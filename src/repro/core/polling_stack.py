"""Kernel-bypass polling: a DPDK-style busy-poll stack.

One core of the host is dedicated to a pinned, fixed-priority poll
thread that spins on the :class:`~repro.nic.polling.PollingNic` ring:
burst-dequeue, then run IP/transport input inline *in process context*
for every frame.  There are no interrupts anywhere on the host — the
NIC never raises one and the clock tick is disabled (`build_host`
constructs polling hosts with ``enable_ticks=False``) — so the
architecture's defining trace property is the total absence of
``interrupt_raised``/``interrupt_dispatched`` events.

Relative to the paper's trio this resolves receive livelock the blunt
way: receive processing cannot preempt applications because it owns
its own core outright.  What it gives up is LRP's accounting story —
the poll core's time is burned whether or not anyone wants the
packets, and protocol work is charged to the poll thread, not to the
receiving application (see docs/ARCHITECTURES.md).
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.engine.process import Compute
from repro.nic.polling import PollingNic
from repro.core.bsd_stack import BsdStack, StageSlices
from repro.sockets.socket import Socket

#: Frames dequeued per poll round (DPDK's canonical rx burst).
POLL_BURST = 32
#: Compute charged per empty poll round: the busy-wait granularity.
#: Small enough that post-burst latency is negligible at the paper's
#: rates.  An idle second is 200k poll rounds (slices), but the CPU
#: runs ahead through them, so they cost engine events only where
#: other events interleave.
POLL_IDLE_USEC = 5.0
#: The poll thread's pinned priority.  It never blocks, so on its
#: dedicated core the value only has to beat the idle default.
POLL_PRIORITY = 0.0


class PollingStack(BsdStack):
    """User-level stack driven by a dedicated busy-poll core."""

    arch_name = "Polling"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not isinstance(self.nic, PollingNic):
            raise TypeError("the polling stack requires a PollingNic")
        ncores = self.kernel.ncores
        if ncores < 2:
            raise ValueError(
                "the polling architecture dedicates one core to "
                "busy-polling; build the host with cores >= 2")
        #: The last core busy-polls; the others run applications.
        self.poll_core = ncores - 1
        #: TCP work (timers, output) deferred to the poll loop; the
        #: kernel-bypass stack has no software interrupts to run it in.
        self._tcp_work: deque = deque()
        self.poll_thread = self.kernel.spawn(
            "busy-poll", self._poll_main(), core=self.poll_core,
            working_set_kb=16.0)
        self.poll_thread.fixed_priority = True
        self.poll_thread.usrpri = POLL_PRIORITY

    # ------------------------------------------------------------------
    def post_tcp_work(self, sock: Socket, kind: str) -> None:
        # No software interrupts: queue for the poll loop, which runs
        # within POLL_IDLE_USEC even when the ring is empty.
        self._tcp_work.append((sock, kind))

    # ------------------------------------------------------------------
    def _poll_main(self) -> Generator:
        nic = self.nic
        tcp_work = self._tcp_work
        # Fixed steps, allocated once: a Compute is read, never
        # changed, by the process that runs it.
        dequeue = Compute(self.costs.dequeue)
        idle_poll = Compute(POLL_IDLE_USEC)
        slices = StageSlices.after(self.costs.dequeue, self.costs)
        while True:
            burst = nic.poll_burst(POLL_BURST)
            for frame in burst:
                # Dequeue and protocol input: one slice of the poll
                # thread's process context, preemptible in principle,
                # but nothing else is pinned to this core.
                yield from self._eager_input(frame.packet, slices)
            while tcp_work:
                sock, kind = tcp_work.popleft()
                yield dequeue
                yield from self.tcp_timer_gen(sock, kind)
            if not burst:
                # Busy-wait: the whole point.  The core shows 100%
                # utilization whether or not traffic arrives.
                yield idle_poll
