"""Asynchronous protocol processing (APP) for TCP under LRP.

Section 3.4: receiver processing for TCP "cannot be performed only in
the context of a receive system call" — timely ACK processing paces
the sender.  LRP therefore processes TCP segments asynchronously, but
*not* at interrupt priority: "the processing is scheduled at the
priority of the application process that uses the associated socket,
and CPU usage is charged back to that application".

Two implementations, both straight from Section 3.4:

* :class:`AppProcessor` — the paper's *prototype* mechanism: "in our
  current prototype implementation, a kernel process is dedicated to
  TCP processing".  One kernel process serves every socket, mirroring
  the current owner's scheduling priority and redirecting its CPU
  charges to that owner.
* :class:`PerProcessAppProcessor` — the paper's *preferred* mechanism:
  "an extra thread can be associated with application processes that
  use stream (TCP) sockets.  This thread is scheduled at its process's
  priority and its CPU usage is charged to its process."  One APP
  thread per owning process, created lazily on first TCP activity (the
  per-process space overhead the paper quotes is one thread control
  block).

Either way the Section 3.4 feedback loop emerges: a flooded
application's priority decays, its protocol processing falls behind,
its channel fills, and the NI starts discarding — early, and only for
that socket.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Set, Tuple

from repro.engine.process import Block, WaitChannel
from repro.host.scheduler import PUSER


class _AppThread:
    """One APP thread: a de-duplicated queue of ``(socket, kind)`` work
    items, each run at the priority of the socket's owner and charged
    to it.  A thread built for one *owner* serves only that
    application; without one it serves every socket, mirroring each
    item's owner in turn."""

    def __init__(self, stack, name: str, working_set_kb: float,
                 parent, owner=None):
        self.stack = stack
        #: Holds the ``segments_processed`` count (and, for per-owner
        #: threads, the ``retire`` callback).
        self.parent = parent
        self.owner = owner
        self.wchan = WaitChannel(name)
        self.pending: Deque[Tuple[object, str]] = deque()
        self.queued: Set[Tuple[int, str]] = set()
        self.proc = stack.kernel.spawn(name, self._main(),
                                       working_set_kb=working_set_kb)
        #: Priority is mirrored from socket owners, never derived from
        #: the APP thread's own (redirected) usage.
        self.proc.fixed_priority = True
        if owner is not None:
            self.proc.charge_to = owner
            self.proc.usrpri = owner.usrpri

    def notify(self, sock, kind: str = "input") -> None:
        """Enqueue work for *sock*; wakes the thread if idle.  Safe to
        call from interrupt context."""
        key = (sock.id, kind)
        if key not in self.queued:
            self.queued.add(key)
            self.pending.append((sock, kind))
        self.stack.kernel.wake_one(self.wchan)

    def _main(self):
        stack = self.stack
        proc = self.proc
        pinned = self.owner
        while True:
            if pinned is not None and not pinned.alive:
                # The application exited; drain quietly and retire.
                self.parent.retire(pinned)
                return
            if not self.pending:
                if pinned is not None:
                    proc.usrpri = pinned.usrpri  # stay at owner's priority
                yield Block(self.wchan)
                continue
            sock, kind = self.pending.popleft()
            self.queued.discard((sock.id, kind))
            owner = pinned if pinned is not None else sock.owner
            mirror = owner is not None and owner.alive
            if mirror:
                proc.charge_to = owner
                proc.usrpri = owner.usrpri
            try:
                if kind == "input":
                    channel = sock.channel
                    while channel is not None and len(channel):
                        packet = channel.pop()
                        self.parent.segments_processed += 1
                        yield stack.channel_pop
                        yield from stack.tcp_input_gen(sock, packet)
                        if mirror and owner.alive:
                            # Charges just raised the owner's usage;
                            # track its (decaying) priority.
                            proc.usrpri = owner.usrpri
                else:
                    yield from stack.tcp_timer_gen(sock, kind)
            finally:
                if pinned is None:
                    proc.charge_to = None
                    proc.usrpri = PUSER


class AppProcessor(_AppThread):
    """The dedicated TCP protocol-processing kernel process."""

    def __init__(self, stack, name: str = "tcp-app"):
        self.segments_processed = 0
        super().__init__(stack, name, 16.0, parent=self)

    @property
    def backlog(self) -> int:
        return len(self.pending)


class PerProcessAppProcessor:
    """Per-application APP threads (the paper's preferred design).

    Drop-in replacement for :class:`AppProcessor`: same ``notify``
    interface, but work for each socket runs on a thread belonging to
    the socket's owner, scheduled at the owner's priority and charged
    to the owner directly (no mirroring hand-off between sockets of
    different applications).
    """

    def __init__(self, stack, name: str = "tcp-app"):
        self.stack = stack
        self._threads: Dict[int, _AppThread] = {}
        self.segments_processed = 0
        #: Kept for interface parity with AppProcessor (the prototype
        #: exposes its single kernel process).
        self.proc = None
        stack.kernel.reap_hooks.append(self._owner_reaped)

    def _owner_reaped(self, proc) -> None:
        """An application exited: retire its APP thread (its one
        thread-control-block of state, per the paper)."""
        thread = self._threads.pop(proc.pid, None)
        if thread is not None and thread.proc.alive:
            self.stack.kernel.reap(thread.proc)

    def notify(self, sock, kind: str = "input") -> None:
        owner = sock.owner
        if owner is None or not owner.alive:
            return
        thread = self._threads.get(owner.pid)
        if thread is None:
            thread = _AppThread(self.stack, f"app-{owner.name}", 4.0,
                                parent=self, owner=owner)
            self._threads[owner.pid] = thread
        thread.notify(sock, kind)

    def retire(self, owner) -> None:
        self._threads.pop(owner.pid, None)

    @property
    def backlog(self) -> int:
        return sum(len(t.pending) for t in self._threads.values())

    @property
    def thread_count(self) -> int:
        return len(self._threads)
