"""Set-up probe, started in a fresh interpreter by ``run.py``.

Imports the simulator, builds the first point of a workload (forking
its shard workers when it is sharded) and runs it for 1 ms of
simulated time.  ``run.py`` times the whole process.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``
"""

import sys

from run import import_simulator

import_simulator()

from points import WORKLOADS  # noqa: E402

first = WORKLOADS[sys.argv[1]](int(sys.argv[2]))[0]
first.call(**first.tiny)
