"""The kernel facade: processes, syscalls, ticks, blocking and wakeup.

A :class:`Kernel` owns a list of :class:`~repro.host.cpu.Cpu` cores
(one or more, each with its own run queue), the accounting policy and
the cache model, and drives simulated processes.  ``kernel.cpu`` and
``kernel.scheduler`` alias core 0, so single-queue network stacks
(``repro.core``) plug in unchanged by registering syscall handlers and
posting interrupt tasks to ``kernel.cpu``; a multi-queue NIC posts
each queue's tasks to ``kernel.cpus[queue]``.

Syscall handlers may be *generator functions*: they are pushed onto the
calling process's generator stack, so any ``Compute`` they yield is
consumed in process context — preemptible, quantum-limited, and charged
to the caller.  This is the substrate on which lazy receiver processing
is built: under LRP, IP and UDP input run as generator frames inside
``recvfrom``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Generator, Optional, Tuple

import inspect

from repro.engine.process import (
    Block,
    Compute,
    Exit,
    ProcState,
    Request,
    SimProcess,
    Sleep,
    Syscall,
    WaitChannel,
)
from repro.engine.simulator import Simulator
from repro.host.accounting import Accounting
from repro.host.cache import CacheModel
from repro.host.costs import DEFAULT_COSTS, CostModel
from repro.host.cpu import Cpu
from repro.host.interrupts import HARDWARE, PROCESS, SimpleIntrTask
from repro.host.scheduler import TICK_USEC, Scheduler

#: schedcpu (estcpu decay) period, in ticks: once per second at HZ=100.
DECAY_TICKS = 100

# Process states as module constants: an enum member lookup costs a
# metaclass attribute access, and these are read on every slice.
_RUNNABLE = ProcState.RUNNABLE
_RUNNING = ProcState.RUNNING
_SLEEPING = ProcState.SLEEPING
_ZOMBIE = ProcState.ZOMBIE


class KernelPanic(RuntimeError):
    """Unrecoverable simulated-kernel error."""


class ProcContext:
    """The CPU-facing execution context of one process."""

    work_class = PROCESS

    __slots__ = ("kernel", "proc", "stint", "switched_in", "core")

    def __init__(self, kernel: "Kernel", proc: SimProcess,
                 core: int = 0):
        self.kernel = kernel
        self.proc = proc
        self.stint = 0.0          # CPU used in the current quantum
        self.switched_in = False  # set by the scheduler on a real switch
        self.core = core          # the core this context is pinned to

    # -- CPU context protocol ------------------------------------------
    def begin(self) -> Optional[float]:
        kernel = self.kernel
        proc = self.proc
        if self.switched_in:
            self.switched_in = False
            proc.compute_remaining += kernel.costs.context_switch
        # Cache refill is repaid whenever the process resumes with part
        # of its hot set evicted — whether by a context switch or by
        # interrupt-handler pollution (the locality effect of Table 2).
        if proc.cache_resident_kb < proc.cache_hot_kb:
            refill = kernel.cache.switch_penalty(proc)
            if refill > 0:
                proc.compute_remaining += refill
        while True:
            if proc.compute_remaining > 1e-9:
                proc.state = _RUNNING
                return proc.compute_remaining
            request = proc.step()
            if request is None:
                kernel.reap(proc)
                return None
            if not kernel.handle_request(self, request):
                return None  # blocked, sleeping, or exited

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ProcContext {self.proc.name}>"


SyscallHandler = Callable[..., Any]


class Kernel:
    """One simulated host's operating system kernel."""

    def __init__(self, sim: Simulator,
                 costs: CostModel = DEFAULT_COSTS,
                 accounting_policy: str = "interrupted",
                 name: str = "host",
                 enable_ticks: bool = True,
                 ncores: int = 1):
        self.sim = sim
        self.name = name
        self.costs = costs
        # N symmetric cores, each with its own run queue.  ``cpu`` and
        # ``scheduler`` alias core 0 (the boot CPU) so every
        # single-core caller — stacks, NICs, experiments — is
        # untouched and the 1-core path stays byte-identical.  An
        # idle core schedules no events at all.
        if ncores < 1:
            raise ValueError(f"a host needs at least one core, "
                             f"got {ncores}")
        self.cpus = [Cpu(sim) for _ in range(ncores)]
        self.cpu = self.cpus[0]
        self.schedulers = [Scheduler(core=i) for i in range(ncores)]
        self.scheduler = self.schedulers[0]
        for cpu, scheduler in zip(self.cpus, self.schedulers):
            scheduler.trace = sim.trace
            cpu.process_source = scheduler
        self.accounting = Accounting(accounting_policy)
        self.cache = CacheModel(costs)
        for cpu in self.cpus:
            cpu.accounting = self.accounting
            cpu.cache = self.cache
        #: name -> (handler, whether it is a generator function).
        self.syscalls: Dict[str, Tuple[SyscallHandler, bool]] = {}
        self.processes: Dict[int, SimProcess] = {}
        self._contexts: Dict[int, ProcContext] = {}
        self.ticks = 0
        self.reaped: list = []
        #: Callbacks invoked with each reaped process (used by the
        #: per-process APP machinery to retire orphaned threads).
        self.reap_hooks: list = []
        #: Set by the scenario builder: the host's network stack and NIC.
        self.stack = None
        self.nic = None
        if enable_ticks:
            self.sim.schedule(TICK_USEC, self._hardclock)

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, name: str, main: Generator, nice: int = 0,
              working_set_kb: float = 8.0, core: int = 0) -> SimProcess:
        """Create a process from generator *main* and make it runnable.

        *core* pins the process to one core's run queue for its whole
        life (the simulated kernel has no migration; per-flow locality
        is the point of RSS steering).
        """
        if not 0 <= core < len(self.cpus):
            raise ValueError(f"core {core} out of range for "
                             f"{len(self.cpus)}-core host")
        proc = SimProcess(name, main, nice=nice)
        proc.working_set_kb = working_set_kb
        proc.state = _RUNNABLE
        self.processes[proc.pid] = proc
        ctx = ProcContext(self, proc, core=core)
        self._contexts[proc.pid] = ctx
        scheduler = self.schedulers[core]
        scheduler.register(proc)
        self.cache.register(proc)
        scheduler.enqueue(ctx)
        self.cpus[core].notify_runnable()
        return proc

    def reap(self, proc: SimProcess, status: int = 0) -> None:
        proc.state = _ZOMBIE
        proc.exit_status = status
        ctx = self._contexts.pop(proc.pid, None)
        scheduler = (self.schedulers[ctx.core] if ctx is not None
                     else self.scheduler)
        scheduler.unregister(proc)
        self.cache.unregister(proc)
        if ctx is not None:
            scheduler.remove(ctx)
        self.processes.pop(proc.pid, None)
        self.reaped.append(proc)
        for hook in self.reap_hooks:
            hook(proc)

    # ------------------------------------------------------------------
    # Request handling (called from ProcContext.begin)
    # ------------------------------------------------------------------
    def handle_request(self, ctx: ProcContext, request: Request) -> bool:
        """Process one yielded request.  Returns ``True`` if the process
        can keep running, ``False`` if it gave up the CPU."""
        proc = ctx.proc
        # Exact-type checks first: nearly every request is a plain
        # Compute or Syscall.
        kind = type(request)
        if kind is Compute or (kind is not Syscall
                               and isinstance(request, Compute)):
            proc.compute_remaining += request.usec
            return True
        if kind is Syscall or isinstance(request, Syscall):
            return self._dispatch_syscall(proc, request)
        if isinstance(request, Block):
            request.channel.add(proc)
            proc.wait_channel = request.channel
            proc.state = _SLEEPING
            return False
        if isinstance(request, Sleep):
            proc.state = _SLEEPING
            proc.sleep_event = self.sim.schedule(
                request.usec, self._sleep_expired, proc)
            return False
        if isinstance(request, Exit):
            self.reap(proc, request.status)
            return False
        raise KernelPanic(f"{proc.name}: unhandled request {request!r}")

    def _dispatch_syscall(self, proc: SimProcess, call: Syscall) -> bool:
        entry = self.syscalls.get(call.name)
        if entry is None:
            proc.throw_on_resume(
                KernelPanic(f"unknown syscall {call.name!r}"))
            return True
        handler, is_generator_function = entry
        traced = self.sim.trace.enabled
        if traced:
            self.sim.trace.syscall_enter(proc.name, call.name)
        proc.compute_remaining += self.costs.syscall_overhead
        if is_generator_function:
            gen = handler(self, proc, **call.kwargs)
            proc.push_frame(self._traced_syscall(proc, call.name, gen)
                            if traced else gen)
            return True
        try:
            result = handler(self, proc, **call.kwargs)
        except Exception as exc:
            if traced:
                self.sim.trace.syscall_exit(proc.name, call.name)
            proc.throw_on_resume(exc)
            return True
        if isinstance(result, GeneratorType):
            # Handlers may return a generator (common for bound
            # methods wrapping an inner generator); run it as a frame.
            proc.push_frame(self._traced_syscall(proc, call.name, result)
                            if traced else result)
        else:
            proc.set_result(result)
            if traced:
                self.sim.trace.syscall_exit(proc.name, call.name)
        return True

    def _traced_syscall(self, proc: SimProcess, name: str, gen):
        """Wrap a syscall handler frame so its completion (normal or
        exceptional) emits ``syscall_exit``.  Only interposed while
        tracing is enabled, keeping the disabled path frame-free."""
        try:
            result = yield from gen
        finally:
            self.sim.trace.syscall_exit(proc.name, name)
        return result

    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        # Resolved once here, not per call: the handler's kind decides
        # how every call to it runs.
        self.syscalls[name] = (handler,
                               inspect.isgeneratorfunction(handler))

    # ------------------------------------------------------------------
    # Blocking and wakeup
    # ------------------------------------------------------------------
    def wake_process(self, proc: SimProcess, value: Any = None) -> None:
        """Make a sleeping process runnable, delivering *value* as the
        result of its blocking yield.  Preempts a lower-priority
        running process, as BSD does on wakeup."""
        if proc.state is not _SLEEPING:
            return
        if proc.wait_channel is not None:
            proc.wait_channel.remove(proc)
            proc.wait_channel = None
        if proc.sleep_event is not None:
            self.sim.cancel(proc.sleep_event)
            proc.sleep_event = None
        proc.set_result(value)
        proc.state = _RUNNABLE
        proc.compute_remaining += self.costs.wakeup
        ctx = self._contexts[proc.pid]
        self.schedulers[ctx.core].enqueue(ctx)
        cpu = self.cpus[ctx.core]
        cpu.preempt_process_for(proc.usrpri)
        cpu.notify_runnable()

    def wake_one(self, channel: WaitChannel, value: Any = None) -> bool:
        """Wake the highest-priority waiter on *channel* (the paper,
        Section 3.4 footnote: "the process with the highest priority
        performs the protocol processing")."""
        waiters = channel.waiters()
        if not waiters:
            return False
        if len(waiters) == 1:
            self.wake_process(waiters[0], value)
        else:
            self.wake_process(min(waiters, key=lambda p: p.usrpri),
                              value)
        return True

    def wake_all(self, channel: WaitChannel, value: Any = None) -> int:
        count = 0
        for proc in channel.waiters():
            self.wake_process(proc, value)
            count += 1
        return count

    def _sleep_expired(self, proc: SimProcess) -> None:
        proc.sleep_event = None
        if proc.state is _SLEEPING:
            proc.set_result(None)
            proc.state = _RUNNABLE
            ctx = self._contexts[proc.pid]
            self.schedulers[ctx.core].enqueue(ctx)
            cpu = self.cpus[ctx.core]
            cpu.preempt_process_for(proc.usrpri)
            cpu.notify_runnable()

    # ------------------------------------------------------------------
    # Clock ticks
    # ------------------------------------------------------------------
    def _hardclock(self) -> None:
        self.ticks += 1
        self.cpu.post(SimpleIntrTask(self.costs.hardclock, HARDWARE,
                                     "hardclock", action=self._tick_body))
        self.sim.schedule(TICK_USEC, self._hardclock)

    def _tick_body(self) -> None:
        if self.ticks % DECAY_TICKS == 0:
            for scheduler in self.schedulers:
                scheduler.decay_all()
        # Tick-granularity preemption, per core: if a runnable process
        # now beats the one that will resume, let that core's
        # scheduler re-pick.  The tick interrupt itself fires on core
        # 0 (the boot CPU) only.
        for cpu, scheduler in zip(self.cpus, self.schedulers):
            best = scheduler.best_runnable_priority()
            current = cpu.last_process_running
            if (best is not None and current is not None
                    and current.proc.usrpri > best):
                cpu.force_resched()

    # ------------------------------------------------------------------
    # Multi-core introspection
    # ------------------------------------------------------------------
    @property
    def ncores(self) -> int:
        return len(self.cpus)

    def finalize_stats(self) -> None:
        """Fold open idle intervals on every core; call before reading
        CPU statistics at the end of a run."""
        for cpu in self.cpus:
            cpu.finalize_stats()

    def core_usage(self, elapsed_usec: float):
        """Per-core utilization report (see
        :func:`repro.host.accounting.core_usage`)."""
        from repro.host.accounting import core_usage
        return core_usage(self.cpus, elapsed_usec)
