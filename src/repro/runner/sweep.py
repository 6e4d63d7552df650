"""The shared sweep-execution subsystem.

Every experiment in the reproduction is a *sweep*: a grid of
independent ``(architecture, parameters, seed)`` points, each a pure,
deterministic simulation.  :class:`SweepRunner` executes such grids

* **in parallel** — points fan out across worker processes via
  :mod:`concurrent.futures` (each point is a whole simulation, so
  process granularity is right and no state is shared);
* **memoized** — each completed point is stored in a content-addressed
  on-disk :class:`~repro.runner.cache.ResultCache` the moment it
  finishes, so re-runs, partial sweeps and interrupted sweeps only
  compute what is missing;
* **observably** — per-point progress and ETA stream to stderr
  (:mod:`repro.runner.progress`), and every point leaves one record in
  :attr:`SweepRunner.points_log` (parameters, digest, wall-clock,
  result or error), from which :meth:`SweepRunner.summary` derives the
  sweep's wall-clock accounting.

Each point runs once.  A point is a pure, seeded simulation, so a
second attempt could only raise the same exception again; a point that
raises or exceeds its timeout is recorded as failed (result ``None``)
and the sweep continues.  A single point run through
:meth:`SweepRunner.call` raises instead.

Results are returned in *submission order* regardless of completion
order, and a sweep executed with 0, 1 or N workers — cold or warm
cache — produces byte-identical results (asserted by
``tests/runner/test_parity.py`` and ``tests/runner/test_cli_sweeps.py``).

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
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.runner.cache import (
    ResultCache,
    canonicalize,
    cores_identity,
    point_digest,
    shards_identity,
    topology_identity,
)
from repro.runner.progress import ProgressReporter
from repro.trace import get_default_tracer

#: A sweep point: ``(function, kwargs)`` or ``(function, kwargs, label)``.
PointSpec = Tuple


class _Point(NamedTuple):
    """A normalized sweep point."""

    fn: Callable
    kwargs: Dict[str, Any]
    label: str
    digest: str


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


def _timed(fn: Callable, kwargs: Dict[str, Any],
           timeout_sec: Optional[float]) -> Tuple[Any, float]:
    """``(fn(**kwargs), wall_sec)`` under the point timeout."""
    started = time.perf_counter()
    result = _call_with_timeout(fn, kwargs, timeout_sec)
    return result, time.perf_counter() - started


def _invoke(dotted_module: str, qualname: str, kwargs: Dict[str, Any],
            timeout_sec: Optional[float] = None) -> Tuple[Any, float]:
    """Worker-side execution of one point; returns (result, wall_sec).

    The function is resolved by name rather than pickled by value so
    points survive the round trip to a worker process unchanged.  The
    timeout is enforced worker-side (each worker's main thread), so a
    wedged point kills only its own attempt.
    """
    return _timed(_resolve(dotted_module, qualname), kwargs, timeout_sec)


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
        memoization.  Every computed point is stored as it completes,
        so re-running an interrupted sweep with the same cache resumes
        it; failed points are never stored, so only they recompute.
    :param progress: stream per-point progress lines to stderr.
    :param point_timeout_sec: per-point wall-clock budget; a point
        exceeding it fails with :class:`PointTimeout`.  ``None``
        disables the guard.
    """

    def __init__(self, workers: int = 0,
                 cache: Optional[ResultCache] = None,
                 progress: bool = False,
                 point_timeout_sec: Optional[float] = None) -> None:
        self.workers = max(0, int(workers))
        self.cache = cache
        self.progress = progress
        self.point_timeout_sec = point_timeout_sec
        #: One entry per executed point, in submission order, with the
        #: same keys for computed, cached and failed points; the CLI
        #: serializes this into ``--results-json`` output.
        self.points_log: List[Dict[str, Any]] = []
        self.notes: List[str] = []
        #: Descriptors of points that failed this runner's lifetime:
        #: ``{label, fn, params, error}``.
        self.failed: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    def call(self, fn: Callable, **kwargs: Any) -> Any:
        """Execute a single point (cached, in-process).

        A failed point is still logged in :attr:`failed` and
        :attr:`points_log`, then raised as a :class:`RuntimeError`
        carrying its recorded error, so a caller never reads ``None``
        as a result.
        """
        failed_before = len(self.failed)
        result = self.map_points([(fn, kwargs)], progress=False)[0]
        if len(self.failed) > failed_before:
            failure = self.failed[-1]
            raise RuntimeError(
                f"point {failure['label']} failed: {failure['error']}")
        return result

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
        points = [self._normalize(spec) for spec in specs]
        tracing = get_default_tracer() is not None
        workers = self.workers if not tracing else 0
        cache = self.cache if not tracing else None
        if tracing and (self.workers > 1 or self.cache is not None):
            note = ("tracer active: sweep forced serial with cache "
                    "bypassed so the trace observes every event")
            if note not in self.notes:
                self.notes.append(note)

        reporter = ProgressReporter(
            total=len(points),
            label=label or "sweep",
            workers=workers,
            enabled=self.progress if progress is None else progress)

        results: List[Any] = [None] * len(points)
        pending: List[int] = []
        log_start = len(self.points_log)
        for index, point in enumerate(points):
            if cache is not None:
                hit, value = cache.get(point.digest)
                if hit:
                    results[index] = value
                    self._log_point(point, index, reporter,
                                    result=value, cached=True)
                    continue
            pending.append(index)

        if len(pending) > 1 and workers > 1:
            self._run_parallel(points, pending, results, cache,
                               min(workers, len(pending)), reporter)
        else:
            for index in pending:
                point = points[index]
                # The function object is called directly (not resolved
                # by name) so closures and lambdas work in serial runs.
                self._settle(point, index, results, cache, reporter,
                             partial(_timed, point.fn, point.kwargs,
                                     self.point_timeout_sec))
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
    def _normalize(self, spec: PointSpec) -> _Point:
        if len(spec) == 3:
            fn, kwargs, point_label = spec
        else:
            fn, kwargs = spec
            point_label = None
        kwargs = dict(kwargs)
        return _Point(fn, kwargs,
                      point_label or _default_label(fn, kwargs),
                      point_digest(fn, kwargs))

    def _run_parallel(self, points, pending, results, cache, workers,
                      reporter) -> None:
        unfinished = set(pending)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {self._submit(pool, points[index]): index
                           for index in pending}
                for future in as_completed(futures):
                    if isinstance(future.exception(), BrokenProcessPool):
                        raise future.exception()
                    index = futures[future]
                    self._settle(points[index], index, results, cache,
                                 reporter, future.result)
                    unfinished.discard(index)
        except BrokenProcessPool as exc:
            # A worker died hard (segfault, os._exit, OOM-kill).  The
            # pool cannot say which point did it, so every unfinished
            # point runs once in its own single-worker pool: the
            # culprit fails alone, innocent bystanders complete.
            self.notes.append(
                f"worker pool broke ({exc!r}); re-running "
                f"{len(unfinished)} unfinished point(s) in isolation")
            for index in sorted(unfinished):
                self._settle(points[index], index, results, cache,
                             reporter,
                             partial(self._run_isolated, points[index]))

    def _submit(self, pool, point: _Point):
        return pool.submit(_invoke, point.fn.__module__,
                           point.fn.__qualname__, point.kwargs,
                           self.point_timeout_sec)

    def _run_isolated(self, point: _Point) -> Tuple[Any, float]:
        """Crash isolation: one point, one disposable worker."""
        with ProcessPoolExecutor(max_workers=1) as solo:
            return self._submit(solo, point).result()

    def _settle(self, point: _Point, seq: int, results, cache, reporter,
                compute: Callable[[], Tuple[Any, float]]) -> None:
        """Run one point's single attempt and log it: a result is
        stored in *results* and the cache, an exception is recorded as
        a failed point."""
        started = time.perf_counter()
        try:
            value, wall_sec = compute()
        except Exception as exc:
            self._log_point(point, seq, reporter, error=exc,
                            wall_sec=time.perf_counter() - started)
            return
        results[seq] = value
        if cache is not None:
            fn, kwargs, point_label, digest = point
            cache.put(digest, value, meta={
                "fn": f"{fn.__module__}.{fn.__qualname__}",
                "label": point_label,
                "params": canonicalize(kwargs),
            })
        self._log_point(point, seq, reporter, result=value,
                        wall_sec=wall_sec)

    def _log_point(self, point: _Point, seq: int, reporter,
                   result: Any = None, wall_sec: float = 0.0,
                   cached: bool = False,
                   error: Optional[BaseException] = None) -> None:
        fn, kwargs, point_label, digest = point
        name = f"{fn.__module__}.{fn.__qualname__}"
        params = canonicalize(kwargs)
        if error is not None:
            self.failed.append({"label": point_label, "fn": name,
                                "params": params, "error": repr(error)})
        self.points_log.append({
            "label": point_label,
            "fn": name,
            "digest": digest,
            "topology": topology_identity(kwargs),
            "shards": shards_identity(kwargs),
            "cores": cores_identity(kwargs),
            "params": params,
            "cached": cached,
            "wall_clock_sec": round(wall_sec, 6),
            # Conservative-sync counters, lifted out of the result so
            # results-JSON consumers can aggregate rounds/grants/frames
            # across a sweep without knowing each experiment's schema.
            "sync": (result.get("sync")
                     if isinstance(result, dict) else None),
            "result": result,
            "error": repr(error) if error is not None else None,
            "_seq": seq,
        })
        reporter.point_done(point_label, wall_sec, cached=cached)

    # ------------------------------------------------------------------
    def _wallclock(self) -> Dict[str, Any]:
        """Per-point wall-clock accounting over :attr:`points_log`."""
        walls = [p["wall_clock_sec"] for p in self.points_log]
        computed = [p for p in self.points_log if not p["cached"]]
        computed_sec = sum(p["wall_clock_sec"] for p in computed)
        out: Dict[str, Any] = {
            "points": len(walls),
            "cached_points": len(walls) - len(computed),
            # Under a parallel runner the summed per-point wall-clock
            # is the aggregate *work*, which exceeds the elapsed time;
            # the ratio of the two is the realized speedup.
            "total_point_sec": round(sum(walls), 6),
            "computed_point_sec": round(computed_sec, 6),
            "mean_computed_sec": (round(computed_sec / len(computed), 6)
                                  if computed else None),
            "max_point_sec": round(max(walls), 6) if walls else None,
        }
        # Engine throughput over the computed points whose function
        # reports an event count (e.g. figure3.run_point's "events"
        # field): total events / total computed wall-clock.
        counted = [(p["result"]["events"], p["wall_clock_sec"])
                   for p in computed
                   if isinstance(p["result"], dict)
                   and p["result"].get("events") is not None
                   and p["wall_clock_sec"] > 0]
        if counted:
            events = sum(n for n, _ in counted)
            out["engine_events"] = events
            out["engine_events_per_sec"] = round(
                events / sum(wall for _, wall in counted), 3)
        return out

    def summary(self) -> Dict[str, Any]:
        """Machine-readable run summary (embedded in results JSON)."""
        out: Dict[str, Any] = {
            "workers": self.workers,
            # The descriptors themselves (kwargs, not just a count),
            # so a results JSON names exactly which points died.
            "failed_points": list(self.failed),
            "wallclock": self._wallclock(),
            "cache": (self.cache.stats() if self.cache is not None
                      else None),
        }
        if self.notes:
            out["notes"] = list(self.notes)
        return out
