"""Generator-based simulated processes and kernel request types.

Simulated programs are written as Python generators that *yield*
requests to the kernel::

    def blast_sink(proc):
        sock = yield SocketCall("socket", proto="udp")
        yield SocketCall("bind", sock=sock, port=9000)
        while True:
            data, addr = yield SocketCall("recvfrom", sock=sock)
            yield Compute(5.0)      # consume 5 us of CPU

The kernel resumes a process by advancing the top generator on its
*generator stack*.  Kernel-side handlers (syscall implementations,
protocol processing) are themselves generators that get pushed onto the
stack, so their ``Compute`` yields are charged to the calling process
and are preemptible exactly like user code.  This is the mechanism that
makes *lazy receiver processing* literal in this simulation: UDP/IP
input runs as generator steps inside the receiving process's
``recvfrom`` handler.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Iterator, Optional


class Request:
    """Base class for everything a process generator may yield."""

    __slots__ = ()


class Compute(Request):
    """Consume *usec* microseconds of CPU time (preemptible)."""

    __slots__ = ("usec",)

    def __init__(self, usec: float):
        if usec < 0:
            raise ValueError(f"negative compute time {usec!r}")
        self.usec = usec

    def __repr__(self) -> str:
        return f"Compute({self.usec:.2f}us)"


class Sleep(Request):
    """Block for *usec* microseconds of simulated wall time."""

    __slots__ = ("usec",)

    def __init__(self, usec: float):
        if usec < 0:
            raise ValueError(f"negative sleep time {usec!r}")
        self.usec = usec


class Block(Request):
    """Block on a :class:`WaitChannel` until woken.

    Yielding ``Block(chan)`` parks the process; a later
    ``chan.wake_one()`` / ``chan.wake_all()`` resumes it.  The value
    passed to the waker is delivered as the result of the yield.
    """

    __slots__ = ("channel",)

    def __init__(self, channel: "WaitChannel"):
        self.channel = channel


class Syscall(Request):
    """A named kernel call with keyword arguments.

    The kernel maps ``name`` to a handler.  Handlers may be plain
    functions (returning the syscall result immediately) or generator
    functions (pushed onto the process's generator stack so they can
    compute, block, and nest further calls).
    """

    __slots__ = ("name", "kwargs")

    def __init__(self, name: str, **kwargs: Any):
        self.name = name
        self.kwargs = kwargs

    def __repr__(self) -> str:
        return f"Syscall({self.name!r})"


class Exit(Request):
    """Terminate the process voluntarily."""

    __slots__ = ("status",)

    def __init__(self, status: int = 0):
        self.status = status


class ProcState(enum.Enum):
    """Lifecycle states of a simulated process (cf. UNIX proc states)."""

    EMBRYO = "embryo"        # created, not yet made runnable
    RUNNABLE = "runnable"    # on a run queue
    RUNNING = "running"      # currently on the CPU
    SLEEPING = "sleeping"    # blocked on a wait channel or timer
    ZOMBIE = "zombie"        # exited


#: Read by :attr:`SimProcess.alive` (an enum member lookup costs a
#: metaclass attribute access).
_ZOMBIE = ProcState.ZOMBIE


class WaitChannel:
    """A queue of processes blocked on some condition.

    Mirrors the BSD ``sleep``/``wakeup`` channel abstraction.  Wakers
    may pass a value that becomes the result of the blocked process's
    ``yield Block(chan)`` expression.
    """

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "wchan"):
        self.name = name
        self._waiters: list["SimProcess"] = []

    def __len__(self) -> int:
        return len(self._waiters)

    def add(self, proc: "SimProcess") -> None:
        self._waiters.append(proc)

    def remove(self, proc: "SimProcess") -> None:
        if proc in self._waiters:
            self._waiters.remove(proc)

    def pop_one(self) -> Optional["SimProcess"]:
        """Remove and return the longest-waiting process, if any.

        Callers that want priority-aware wakeup should instead pick via
        :meth:`waiters` and :meth:`remove`.
        """
        if not self._waiters:
            return None
        return self._waiters.pop(0)

    def waiters(self) -> tuple:
        return tuple(self._waiters)

    def __repr__(self) -> str:
        return f"<WaitChannel {self.name} waiters={len(self._waiters)}>"


class SimProcess:
    """A simulated process: a stack of generators plus kernel state.

    The scheduler-facing accounting fields (``estcpu``, ``nice``,
    ``usrpri``) follow the 4.3BSD scheduler; the host package maintains
    them.  ``cpu_time`` is exact microseconds of CPU charged to this
    process, including any interrupt-time the accounting policy
    attributes to it — this is what the paper's "resource accounting"
    discussion is about.
    """

    _next_pid = 1

    def __init__(self, name: str, main: Generator, nice: int = 0):
        self.pid = SimProcess._next_pid
        SimProcess._next_pid += 1
        self.name = name
        self.nice = nice
        self.state = ProcState.EMBRYO
        self.exit_status: Optional[int] = None

        # Generator stack; index -1 is the currently-executing frame.
        self._stack: list[Iterator] = [main]
        # Value/exception to deliver on the next resume.
        self._send_value: Any = None
        self._pending_exc: Optional[BaseException] = None

        # Scheduler state (maintained by repro.host.scheduler).
        self.estcpu: float = 0.0
        self.usrpri: float = 50.0
        #: When True the scheduler never recomputes usrpri from estcpu
        #: (kernel threads with pinned or mirrored priorities).
        self.fixed_priority: bool = False
        self.slptime_ticks: int = 0
        self.run_ticks_in_quantum: int = 0

        # Accounting (maintained by repro.host.accounting).
        self.cpu_time: float = 0.0       # total charged CPU microseconds
        self.syscall_time: float = 0.0   # subset charged in syscall context
        self.intr_time_charged: float = 0.0  # interrupt time billed to us
        #: When set, CPU this process consumes is billed to another
        #: process.  Used by LRP's asynchronous protocol processing
        #: thread, whose usage "is charged back to that application"
        #: (paper Section 3.4).
        self.charge_to: Optional["SimProcess"] = None

        # Cache-locality model state (repro.host.cache).
        self.working_set_kb: float = 8.0
        self.cache_resident_kb: float = 0.0
        self.cache_hot_kb: float = 8.0  # recomputed by CacheModel.register

        # Wait state.
        self.wait_channel: Optional[WaitChannel] = None
        self.sleep_event = None  # heap entry of a Sleep timeout

        # Compute-in-progress bookkeeping (owned by the CPU model).
        self.compute_remaining: float = 0.0

    # ------------------------------------------------------------------
    # Generator-stack mechanics
    # ------------------------------------------------------------------
    def push_frame(self, gen: Iterator) -> None:
        """Enter a kernel handler generator on behalf of this process."""
        self._stack.append(gen)

    def set_result(self, value: Any) -> None:
        """Set the value delivered to the next ``yield`` resumption."""
        self._send_value = value

    def throw_on_resume(self, exc: BaseException) -> None:
        """Deliver *exc* into the generator at the next resumption."""
        self._pending_exc = exc

    def step(self) -> Optional[Request]:
        """Advance the process to its next request.

        Returns the next :class:`Request` the process yields, or
        ``None`` when the outermost generator has finished (the process
        should then be reaped).  Frames that finish propagate their
        return value to the frame below, mirroring how a syscall
        handler's return value becomes the syscall's result.
        """
        while self._stack:
            frame = self._stack[-1]
            try:
                if self._pending_exc is not None:
                    exc, self._pending_exc = self._pending_exc, None
                    request = frame.throw(exc)
                else:
                    value, self._send_value = self._send_value, None
                    request = frame.send(value)
            except StopIteration as stop:
                self._stack.pop()
                self._send_value = stop.value
                continue
            if not isinstance(request, Request):
                raise TypeError(
                    f"process {self.name!r} yielded {request!r}, "
                    f"expected a Request")
            return request
        return None

    @property
    def alive(self) -> bool:
        return self.state is not _ZOMBIE

    def __repr__(self) -> str:
        return (f"<SimProcess pid={self.pid} {self.name!r} "
                f"{self.state.value} pri={self.usrpri:.1f}>")
