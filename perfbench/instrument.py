"""What the benchmark measures around each point, from its own files.

* :class:`Capture` wraps three public constructors/methods of the
  simulator so the result objects a point builds (sharded runs,
  testbeds, hosts) can be read after the point returns: engine event
  counts, fabric frame counts, sync counters and server-core time.
* :class:`LayerProfile` runs points under ``cProfile`` and groups
  self time and call counts by the ``repro.<layer>`` package whose
  source file defines each function.  Shard workers forked by the
  sharded engine profile themselves and leave their statistics in a
  scratch directory, which the coordinator folds in.

Nothing here changes what a point simulates.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import shutil
import sys
from pathlib import Path
from typing import Dict, List

from repro.core.architecture import Host
from repro.engine import sharded
from repro.engine.sharded import ShardedEngine
from repro.experiments.common import Testbed

SRC_REPRO = Path(sharded.__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent

#: Layers, in report order.  ``engine.sharded`` is the PDES stack
#: inside ``repro.engine``; ``other`` is code under ``src/repro``
#: outside the named packages plus this benchmark's own hooks;
#: ``python`` is the standard library and builtins.
LAYERS = ("engine", "engine.sharded", "host", "net", "nic", "core",
          "proto", "sockets", "mem", "workloads", "apps", "stats",
          "experiments", "runner", "trace", "other", "python")
SHARDED_FILES = ("sharded.py", "supervisor.py", "checkpoint.py")


class Capture:
    """Collects the objects each point builds, until :meth:`take`."""

    def __init__(self) -> None:
        self.runs: List = []
        self.beds: List = []
        self.hosts: List = []
        self._saved = []

    def install(self) -> None:
        def wrap_after(cls, name, sink):
            original = getattr(cls, name)

            def wrapper(obj, *args, **kwargs):
                result = original(obj, *args, **kwargs)
                getattr(self, sink).append(
                    obj if name == "__init__" else result)
                return result

            self._saved.append((cls, name, original))
            setattr(cls, name, wrapper)

        wrap_after(ShardedEngine, "run", "runs")
        wrap_after(Testbed, "__init__", "beds")
        wrap_after(Host, "__init__", "hosts")

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def take(self):
        taken = (self.runs, self.beds, self.hosts)
        self.runs, self.beds, self.hosts = [], [], []
        return taken


def point_counters(runs, beds) -> Dict[str, float]:
    """Deterministic cost counters of one point's sharded runs and
    testbeds (plus the wall-clock serialization time of the shard
    transport)."""
    counters = {"events": 0, "frames": 0, "rounds": 0,
                "sync_frames": 0, "skipped": 0, "grants": 0,
                "serialization_s": 0.0}
    for run in runs:
        counters["events"] += run.events
        counters["frames"] += run.total_conservation()["sent"]
        counters["serialization_s"] += run.serialization_sec
        if run.shards > 1 and run.sync:
            counters["rounds"] += run.sync["rounds"]
            counters["sync_frames"] += run.sync["frames"]
            counters["skipped"] += run.sync["skipped_steps"]
            counters["grants"] += run.sync["grants_issued"]
    for bed in beds:
        counters["events"] += bed.sim.events_processed
        counters["frames"] += bed.network.frames_sent
    return counters


def server_core_time(hosts, server_addr) -> Dict[str, float]:
    """Simulated server-core time (µs): elapsed, interrupt, idle."""
    total = {"elapsed": 0.0, "intr": 0.0, "idle": 0.0}
    for host in hosts:
        if host.addr != server_addr:
            continue
        host.kernel.finalize_stats()
        now = host.sim.now
        for core in host.kernel.core_usage(now):
            total["elapsed"] += now
            total["intr"] += core["hw_intr_usec"] + core["sw_intr_usec"]
            total["idle"] += core["idle_usec"]
    return total


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer of the source file that defines a profiled function."""
    if filename.startswith("<") or filename == "~":
        return "python"  # builtins and frozen modules
    path = Path(filename).resolve()
    if HERE in path.parents:
        return "other"
    try:
        parts = path.relative_to(SRC_REPRO).parts
    except ValueError:
        return "python"
    if len(parts) < 2:
        return "other"
    if parts[0] == "engine" and parts[1] in SHARDED_FILES:
        return "engine.sharded"
    return parts[0] if parts[0] in LAYERS else "other"


class LayerProfile:
    """cProfile self time and calls, grouped by layer."""

    def __init__(self, scratch: Path) -> None:
        self.profile = cProfile.Profile()
        self.scratch = scratch
        self._worker_main = getattr(sharded, "_worker_main", None)

    def __enter__(self) -> "LayerProfile":
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        if self._worker_main is not None:
            sharded._worker_main = self._profiled_worker
        return self

    def __exit__(self, *exc) -> None:
        if self._worker_main is not None:
            sharded._worker_main = self._worker_main

    def _profiled_worker(self, *args, **kwargs):
        # Runs in a forked shard worker: drop the coordinator's
        # inherited profiler and record this process on its own.
        sys.setprofile(None)
        profile = cProfile.Profile()
        profile.enable()
        try:
            return self._worker_main(*args, **kwargs)
        finally:
            profile.disable()
            profile.dump_stats(str(self.scratch
                                   / f"worker-{os.getpid()}.prof"))

    def call(self, fn, *args, **kwargs):
        self.profile.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self.profile.disable()

    def layers(self):
        """``({layer: [self_s, calls]}, profiled total self_s, shard
        workers folded in)`` over the coordinator and every shard
        worker profiled so far.  The total is pstats' own sum, so
        comparing it with the layers' sum checks the partition."""
        sources = [pstats.Stats(self.profile)]
        sources += [pstats.Stats(str(path))
                    for path in sorted(self.scratch.glob("*.prof"))]
        grouped = {layer: [0.0, 0] for layer in LAYERS}
        for stats in sources:
            for (filename, _, _), (_, calls, self_s, _, _) \
                    in stats.stats.items():
                entry = grouped[layer_of(filename)]
                entry[0] += self_s
                entry[1] += calls
        total = sum(stats.total_tt for stats in sources)
        return grouped, total, len(sources) - 1

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
