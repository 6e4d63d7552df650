"""The shared sweep-execution subsystem.

Every experiment in the reproduction is a *sweep*: a grid of
independent ``(architecture, parameters, seed)`` points, each a pure,
deterministic simulation.  :class:`SweepRunner` executes such grids

* **in parallel** — points fan out across worker processes via
  :mod:`concurrent.futures` (each point is a whole simulation, so
  process granularity is right and no state is shared);
* **memoized** — completed points are stored in a content-addressed
  on-disk :class:`~repro.runner.cache.ResultCache`, so re-runs and
  partial sweeps are nearly instant;
* **observably** — per-point progress and ETA stream to stderr
  (:mod:`repro.runner.progress`), and per-point wall-clock is recorded
  in a :class:`~repro.stats.timing.WallClock` so the runner's own
  speedup is measurable.

Results are returned in *submission order* regardless of completion
order, and a sweep executed with 0, 1 or N workers — cold or warm
cache — produces byte-identical results (asserted by
``tests/runner/test_parity.py`` and by CI).

Two interplays are handled conservatively:

* **Tracing**: when a default tracer is active (``--trace``), the
  runner falls back to serial in-process execution and bypasses the
  cache — a trace must observe every simulated event, which worker
  processes and memoized results would hide.
* **Point functions** must be module-level (picklable by reference)
  and return JSON-serializable data; every ``run_point`` in
  ``repro.experiments`` satisfies both.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from repro.runner.cache import (
    ResultCache,
    RunJournal,
    canonicalize,
    cores_identity,
    point_digest,
    shards_identity,
    topology_identity,
)
from repro.runner.progress import ProgressReporter
from repro.stats.timing import WallClock
from repro.trace import get_default_tracer

#: A sweep point: ``(function, kwargs)`` or ``(function, kwargs, label)``.
PointSpec = Tuple


class PointTimeout(RuntimeError):
    """A sweep point exceeded its per-point wall-clock budget."""


def _resolve(dotted_module: str, qualname: str) -> Callable:
    obj: Any = importlib.import_module(dotted_module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _call_with_timeout(fn: Callable, kwargs: Dict[str, Any],
                       timeout_sec: Optional[float]) -> Any:
    """Run ``fn(**kwargs)``, raising :class:`PointTimeout` if it runs
    longer than *timeout_sec*.

    Uses SIGALRM, the only way to interrupt a wedged simulation loop
    from within the same process; degrades to an unguarded call where
    alarms are unavailable (non-main thread, platforms without
    SIGALRM).  Signal handlers can only be installed from the **main
    thread** — callers running points from worker threads get the
    unguarded fallback, never a cross-thread alarm.
    """
    can_alarm = (timeout_sec is not None and timeout_sec > 0
                 and hasattr(signal, "SIGALRM")
                 and threading.current_thread()
                 is threading.main_thread())
    if not can_alarm:
        return fn(**kwargs)

    def _on_alarm(signum, frame):
        raise PointTimeout(
            f"point exceeded {timeout_sec:.1f}s wall-clock budget")

    # Nested try/finally: the itimer must be disarmed before the
    # handler is restored, and *both* must happen even if the alarm
    # fires in the gap after fn() returns — a late PointTimeout raised
    # inside a single flat finally would skip the statements after it,
    # leaving the previous handler lost and a live timer pointed at a
    # handler that no longer exists.
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_sec)
        try:
            return fn(**kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _invoke(dotted_module: str, qualname: str, kwargs: Dict[str, Any],
            timeout_sec: Optional[float] = None) -> Tuple[Any, float]:
    """Worker-side execution of one point; returns (result, wall_sec).

    The function is resolved by name rather than pickled by value so
    points survive the round trip to a worker process unchanged.  The
    timeout is enforced worker-side (each worker's main thread), so a
    wedged point kills only its own attempt.
    """
    fn = _resolve(dotted_module, qualname)
    started = time.perf_counter()
    result = _call_with_timeout(fn, kwargs, timeout_sec)
    return result, time.perf_counter() - started


def _default_label(fn: Callable, kwargs: Dict[str, Any]) -> str:
    parts = []
    for key, value in kwargs.items():
        value = canonicalize(value)
        if isinstance(value, dict):
            value = value.get("value", "...")
        parts.append(f"{key}={value}")
    return f"{fn.__name__}({', '.join(parts)})"


class SweepRunner:
    """Executes sweeps of independent simulation points.

    :param workers: worker *processes*; 0 or 1 means serial in-process
        execution (the default, byte-identical to the historical
        per-experiment loops).
    :param cache: a :class:`ResultCache`, or ``None`` to disable
        memoization.
    :param progress: stream per-point progress lines to stderr.
    :param label: name shown in progress lines and the results log.
    :param point_timeout_sec: per-point wall-clock budget; a point
        exceeding it fails with :class:`PointTimeout` (and is retried
        if retries are configured).  ``None`` disables the guard.
    :param retries: how many times a failed point is re-attempted
        before being recorded as failed (result ``None``).
    :param retry_backoff_sec: sleep before retry *n* is
        ``retry_backoff_sec * 2**n`` — real seconds, since the failures
        being absorbed (dying workers, timeouts) are host-level.
    :param journal: a :class:`~repro.runner.cache.RunJournal`; every
        computed point is appended to it, and points already journaled
        (by digest) are served from it without recomputation — the
        mechanism behind the CLI's ``--resume``.
    """

    def __init__(self, workers: int = 0,
                 cache: Optional[ResultCache] = None,
                 progress: bool = False,
                 label: str = "sweep",
                 stream: Optional[TextIO] = None,
                 point_timeout_sec: Optional[float] = None,
                 retries: int = 0,
                 retry_backoff_sec: float = 0.5,
                 journal: Optional[RunJournal] = None) -> None:
        self.workers = max(0, int(workers))
        self.cache = cache
        self.progress = progress
        self.label = label
        self.stream = stream
        self.point_timeout_sec = point_timeout_sec
        self.retries = max(0, int(retries))
        self.retry_backoff_sec = retry_backoff_sec
        self.journal = journal
        self._active_journal: Optional[RunJournal] = None
        self.wallclock = WallClock()
        #: One entry per executed point, in submission order; the CLI
        #: serializes this into ``--results-json`` output.
        self.points_log: List[Dict[str, Any]] = []
        self.notes: List[str] = []
        #: Descriptors of points that exhausted their retries this
        #: runner's lifetime: ``{label, fn, params, error}``.
        self.failed: List[Dict[str, Any]] = []

    @property
    def failed_points(self) -> int:
        """Count of points that exhausted their retries (see
        :attr:`failed` for the descriptors)."""
        return len(self.failed)

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls, prefix: str = "REPRO_SWEEP",
                 **overrides: Any) -> "SweepRunner":
        """Build a runner from ``<prefix>_WORKERS`` / ``<prefix>_CACHE``
        / ``<prefix>_PROGRESS`` environment variables (used by the
        benchmark harness so ``pytest benchmarks/`` can be accelerated
        without touching the benchmarks)."""
        workers = int(os.environ.get(f"{prefix}_WORKERS", "0") or "0")
        cache_dir = os.environ.get(f"{prefix}_CACHE", "")
        cache = ResultCache(cache_dir) if cache_dir else None
        progress = os.environ.get(f"{prefix}_PROGRESS", "") == "1"
        options = dict(workers=workers, cache=cache, progress=progress)
        options.update(overrides)
        return cls(**options)

    # ------------------------------------------------------------------
    def call(self, fn: Callable, **kwargs: Any) -> Any:
        """Execute a single point (cached, in-process)."""
        return self.map_points([(fn, kwargs)], progress=False)[0]

    def map(self, fn: Callable, kwargs_list: Sequence[Dict[str, Any]],
            label: Optional[str] = None) -> List[Any]:
        """Execute *fn* over a parameter grid; results in input order."""
        return self.map_points([(fn, kwargs) for kwargs in kwargs_list],
                               label=label)

    def map_points(self, specs: Sequence[PointSpec],
                   label: Optional[str] = None,
                   progress: Optional[bool] = None) -> List[Any]:
        """Execute heterogeneous points (possibly differing functions);
        results in input order."""
        specs = [self._normalize(spec) for spec in specs]
        tracing = get_default_tracer() is not None
        workers = self.workers if not tracing else 0
        cache = self.cache if not tracing else None
        journal = self.journal if not tracing else None
        self._active_journal = journal
        if tracing and (self.workers > 1 or self.cache is not None
                        or self.journal is not None):
            note = ("tracer active: sweep forced serial with cache "
                    "bypassed so the trace observes every event")
            if note not in self.notes:
                self.notes.append(note)

        reporter = ProgressReporter(
            total=len(specs),
            label=label or self.label,
            workers=workers,
            enabled=self.progress if progress is None else progress,
            stream=self.stream)

        results: List[Any] = [None] * len(specs)
        pending: List[int] = []
        log_start = len(self.points_log)
        for index, (fn, kwargs, point_label) in enumerate(specs):
            digest = point_digest(fn, kwargs)
            if journal is not None:
                hit, value = journal.get(digest)
                if hit:
                    results[index] = value
                    self._log_point(fn, kwargs, point_label, digest,
                                    cached=True, wall_sec=0.0,
                                    result=value, seq=index,
                                    resumed=True)
                    reporter.point_done(point_label, 0.0, cached=True)
                    continue
            if cache is not None:
                hit, value = cache.get(digest)
                if hit:
                    if journal is not None:
                        journal.record(digest, value)
                    results[index] = value
                    self._log_point(fn, kwargs, point_label, digest,
                                    cached=True, wall_sec=0.0,
                                    result=value, seq=index)
                    reporter.point_done(point_label, 0.0, cached=True)
                    continue
            pending.append(index)

        if len(pending) > 1 and workers > 1:
            self._run_parallel(specs, pending, results, cache,
                               min(workers, len(pending)), reporter)
        else:
            self._run_serial(specs, pending, results, cache, reporter)
        reporter.close()
        # Parallel futures complete (and log) in nondeterministic
        # order; restore submission order so results JSON is stable
        # across serial/parallel/cached runs.
        tail = sorted(self.points_log[log_start:],
                      key=lambda entry: entry["_seq"])
        for entry in tail:
            del entry["_seq"]
        self.points_log[log_start:] = tail
        return results

    # ------------------------------------------------------------------
    def _normalize(self, spec: PointSpec) -> Tuple[Callable, Dict, str]:
        if len(spec) == 3:
            fn, kwargs, point_label = spec
        else:
            fn, kwargs = spec
            point_label = None
        return fn, dict(kwargs), point_label or _default_label(fn, kwargs)

    def _run_serial(self, specs, pending, results, cache,
                    reporter) -> None:
        for index in pending:
            fn, kwargs, point_label = specs[index]
            attempt = 0
            while True:
                started = time.perf_counter()
                try:
                    # The function object is called directly (not
                    # resolved by name) so closures and lambdas work
                    # in serial runs, as they always have.
                    value = _call_with_timeout(fn, kwargs,
                                               self.point_timeout_sec)
                except Exception as exc:
                    wall = time.perf_counter() - started
                    if attempt < self.retries:
                        self._note_retry(point_label, exc, attempt)
                        time.sleep(self.retry_backoff_sec * 2 ** attempt)
                        attempt += 1
                        continue
                    self._finish_failed(specs[index], exc, wall,
                                        reporter, seq=index)
                    break
                wall = time.perf_counter() - started
                results[index] = value
                self._finish_computed(specs[index], value, wall, cache,
                                      reporter, seq=index)
                break

    def _run_parallel(self, specs, pending, results, cache, workers,
                      reporter) -> None:
        attempts = {index: 0 for index in pending}
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for index in pending:
                    futures[self._submit(pool, specs[index])] = index
                outstanding = set(futures)
                while outstanding:
                    finished, outstanding = wait(
                        outstanding, return_when=FIRST_COMPLETED)
                    for future in finished:
                        index = futures.pop(future)
                        try:
                            value, wall = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception as exc:
                            if attempts[index] < self.retries:
                                self._note_retry(specs[index][2], exc,
                                                 attempts[index])
                                time.sleep(self.retry_backoff_sec
                                           * 2 ** attempts[index])
                                attempts[index] += 1
                                retry = self._submit(pool, specs[index])
                                futures[retry] = index
                                outstanding.add(retry)
                                continue
                            self._finish_failed(specs[index], exc, 0.0,
                                                reporter, seq=index)
                            attempts.pop(index)
                            continue
                        results[index] = value
                        self._finish_computed(specs[index], value, wall,
                                              cache, reporter,
                                              seq=index)
                        attempts.pop(index)
        except BrokenProcessPool as exc:
            # A worker died hard (segfault, os._exit, OOM-kill).  The
            # pool cannot say which point did it, so every unfinished
            # point re-runs in its own single-worker pool: the culprit
            # fails alone, innocent bystanders complete.
            survivors = sorted(attempts)
            self.notes.append(
                f"worker pool broke ({exc!r}); re-running "
                f"{len(survivors)} unfinished point(s) in isolation")
            for index in survivors:
                self._run_isolated(specs[index], index, results, cache,
                                   reporter)

    def _submit(self, pool, spec):
        fn, kwargs, _ = spec
        return pool.submit(_invoke, fn.__module__, fn.__qualname__,
                           kwargs, self.point_timeout_sec)

    def _run_isolated(self, spec, index, results, cache,
                      reporter) -> None:
        """Crash isolation: one point, one disposable worker."""
        fn, kwargs, point_label = spec
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_backoff_sec * 2 ** (attempt - 1))
            try:
                with ProcessPoolExecutor(max_workers=1) as solo:
                    value, wall = solo.submit(
                        _invoke, fn.__module__, fn.__qualname__,
                        kwargs, self.point_timeout_sec).result()
            except Exception as exc:
                if attempt < self.retries:
                    self._note_retry(point_label, exc, attempt)
                    continue
                self._finish_failed(spec, exc, 0.0, reporter, seq=index)
                return
            results[index] = value
            self._finish_computed(spec, value, wall, cache, reporter,
                                  seq=index)
            return

    def _note_retry(self, point_label, exc, attempt) -> None:
        self.notes.append(
            f"retrying {point_label} after {type(exc).__name__} "
            f"(attempt {attempt + 1}/{self.retries})")

    def _finish_failed(self, spec, exc, wall_sec, reporter,
                       seq: int) -> None:
        """Record a point that exhausted its retries: result ``None``,
        error captured in the points log, sweep continues."""
        fn, kwargs, point_label = spec
        digest = point_digest(fn, kwargs)
        self.failed.append({
            "label": point_label,
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "params": canonicalize(kwargs),
            "error": repr(exc),
        })
        self.wallclock.record(point_label, wall_sec, cached=False)
        self.points_log.append({
            "label": point_label,
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "digest": digest,
            "topology": topology_identity(kwargs),
            "shards": shards_identity(kwargs),
            "cores": cores_identity(kwargs),
            "params": canonicalize(kwargs),
            "cached": False,
            "resumed": False,
            "wall_clock_sec": round(wall_sec, 6),
            "result": None,
            "error": repr(exc),
            "_seq": seq,
        })
        reporter.point_done(point_label, wall_sec, cached=False)

    def _finish_computed(self, spec, value, wall_sec, cache,
                         reporter, seq: int) -> None:
        fn, kwargs, point_label = spec
        digest = point_digest(fn, kwargs)
        meta = {
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "label": point_label,
            "params": canonicalize(kwargs),
        }
        if cache is not None:
            cache.put(digest, value, meta=meta)
        if self._active_journal is not None:
            self._active_journal.record(digest, value, meta=meta)
        self._log_point(fn, kwargs, point_label, digest, cached=False,
                        wall_sec=wall_sec, result=value, seq=seq)
        reporter.point_done(point_label, wall_sec, cached=False)

    def _log_point(self, fn, kwargs, point_label, digest, cached,
                   wall_sec, result, seq: int,
                   resumed: bool = False) -> None:
        events = (result.get("events")
                  if isinstance(result, dict) else None)
        sync = (result.get("sync")
                if isinstance(result, dict) else None)
        self.wallclock.record(point_label, wall_sec, cached=cached,
                              events=events)
        self.points_log.append({
            "label": point_label,
            "fn": f"{fn.__module__}.{fn.__qualname__}",
            "digest": digest,
            "topology": topology_identity(kwargs),
            "shards": shards_identity(kwargs),
            "cores": cores_identity(kwargs),
            "params": canonicalize(kwargs),
            "cached": cached,
            "resumed": resumed,
            "wall_clock_sec": round(wall_sec, 6),
            # Conservative-sync counters, lifted out of the result so
            # results-JSON consumers can aggregate rounds/grants/frames
            # across a sweep without knowing each experiment's schema.
            "sync": sync,
            "result": result,
            "_seq": seq,
        })

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Machine-readable run summary (embedded in results JSON)."""
        out: Dict[str, Any] = {
            "workers": self.workers,
            # The descriptors themselves (kwargs, not just a count),
            # so a results JSON names exactly which points died.
            "failed_points": list(self.failed),
            "wallclock": self.wallclock.summary(),
        }
        out["cache"] = (self.cache.stats() if self.cache is not None
                        else None)
        out["journal"] = (self.journal.stats()
                          if self.journal is not None else None)
        if self.notes:
            out["notes"] = list(self.notes)
        return out
