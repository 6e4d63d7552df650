"""Parallel, cached execution of experiment sweeps.

The experiments in this reproduction (``figure3/4/5``, ``table1/2``,
ablations, sensitivity) are grids of independent, seeded,
deterministic simulation points.  This package is the shared
subsystem that executes such grids fast and reproducibly:

* :class:`~repro.runner.sweep.SweepRunner` — fans points out across
  worker processes (``--parallel N``), returns results in submission
  order, and streams progress/ETA to the terminal;
* :class:`~repro.runner.cache.ResultCache` — content-addressed on-disk
  memoization keyed by a digest of the cost model, the point
  function's source, its full parameter binding (architecture, sweep
  parameters, seed) and the package version, so identical points are
  never simulated twice (``--cache``) and any relevant change is an
  automatic cache miss.  Points are stored as they complete, so
  re-running an interrupted sweep with the same cache resumes it.

Each point runs once and leaves one record in
:attr:`SweepRunner.points_log`; :meth:`SweepRunner.summary` derives
the per-point wall-clock accounting from those records, so the
speedup the runner delivers is itself a measured result.

Serial, parallel and warm-cache executions of the same sweep are
byte-identical; ``tests/runner/`` enforces this.  See docs/RUNNING.md
for the user-facing tour.
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ResultCache,
    canonicalize,
    cores_identity,
    default_cache_dir,
    point_digest,
    shards_identity,
    topology_identity,
)
from repro.runner.progress import ProgressReporter, format_eta
from repro.runner.sweep import SweepRunner

__all__ = [
    "CACHE_DIR_ENV",
    "ProgressReporter",
    "ResultCache",
    "SweepRunner",
    "canonicalize",
    "cores_identity",
    "default_cache_dir",
    "format_eta",
    "point_digest",
    "shards_identity",
    "topology_identity",
]
