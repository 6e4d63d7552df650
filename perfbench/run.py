"""End-to-end benchmark of the LRP simulator.

Run from the repository root::

    python3 perfbench/run.py --workload udp_blast --seed 1 \\
        --seconds 30 --trace 0

Each workload is a fixed list of experiment points (``points.py``),
run one at a time in this process.  With ``--trace 0`` the benchmark
repeats the list ("a pass") as often as ``--seconds`` holds the
workload's nominal pass time, and reports host-time end-to-end
metrics; with ``--trace 1`` it makes one plain pass, one pass under
``cProfile``, and a one-shard companion of every sharded point, and
reports per-layer metrics.  Every point's
simulated outputs are checked in both modes.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it carries the details
(host CPUs, per-point times, failures).  ``--pin`` rewrites the
workload's values in ``pinned.json`` from one pass at the default
seed.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: A point that runs longer than this is stopped and counted failed.
POINT_TIMEOUT_S = 90
#: Fresh interpreters started per run to time set-up.
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60


def import_simulator() -> None:
    """Put this checkout's ``src`` first on the path and check that
    ``repro`` comes from it; exit non-zero when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: repro imported from {repro.__file__}, "
                 f"not from {SRC}")


class PointTimeout(BaseException):
    """Raised by the alarm when a point overruns POINT_TIMEOUT_S (a
    BaseException, so no ``except Exception`` in the simulator
    swallows it)."""


def _on_alarm(signum, frame):
    raise PointTimeout(f"point ran longer than {POINT_TIMEOUT_S} s")


def run_pass(points, capture, call=None, overrides=None, between=None):
    """Run every point once, calling *between* after each one.
    Returns per-point host seconds, outputs, cost counters,
    server-core time and errors."""
    from instrument import point_counters, server_core_time
    call = call or (lambda fn, **kw: fn(**kw))
    result = {"walls": {}, "outputs": {}, "counters": {}, "cores": {},
              "errors": {}}
    for point in points:
        gc.collect()
        capture.take()
        signal.setitimer(signal.ITIMER_REAL, POINT_TIMEOUT_S)
        started = time.perf_counter()
        try:
            output = call(point.call, **(overrides or {}))
        except (Exception, PointTimeout) as exc:  # noqa: BLE001
            output = None
            result["errors"][point.name] = repr(exc)
        finally:
            wall = time.perf_counter() - started
            signal.setitimer(signal.ITIMER_REAL, 0)
        result["walls"][point.name] = wall
        runs, beds, hosts = capture.take()
        if output is None:
            continue
        try:
            result["counters"][point.name] = point_counters(runs, beds)
        except Exception as exc:  # noqa: BLE001 - e.g. broken ledger
            result["errors"][point.name] = repr(exc)
            continue
        result["outputs"][point.name] = output
        result["cores"][point.name] = server_core_time(
            hosts, point.server_addr)
        if between is not None:
            between()
    return result


def check_pass(workload, points, seed, result):
    """Failed point names of one pass, with reasons."""
    from points import check_outputs
    failures = dict(result["errors"])
    if len(result["outputs"]) == len(points):
        for name, why in check_outputs(workload, points,
                                       result["outputs"], seed):
            failures.setdefault(name, why)
    return failures


def _deterministic_view(result):
    return json.dumps([result["outputs"], {
        name: {k: v for k, v in c.items() if k != "serialization_s"}
        for name, c in result["counters"].items()}],
        sort_keys=True, default=str)


def warm_up(points, capture):
    """Build and tear down each point once with (almost) no simulated
    time, so lazy imports and first-call costs stay out of the timed
    passes."""
    errors = {}
    for point in points:
        try:
            point.call(**point.tiny)
        except Exception as exc:  # noqa: BLE001
            errors[point.name] = f"warm-up: {exc!r}"
    capture.take()
    return errors


class SetupProbes:
    """Times set-up in fresh interpreters: each probe imports the
    simulator, builds the workload's first point (forking its shard
    workers) and runs it for 1 ms of simulated time.  Probes are spread
    evenly over *span* seconds of the run, so one burst of load from
    other processes on the machine cannot skew them all."""

    def __init__(self, workload, seed, span):
        self.command = [sys.executable, str(HERE / "setup_probe.py"),
                        workload, str(seed)]
        self.interval = span / SETUP_PROBES
        self.times, self.errors = [], []
        self._last = time.perf_counter()

    def _probe(self):
        started = time.perf_counter()
        done = subprocess.run(self.command, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=SETUP_PROBE_TIMEOUT_S)
        self._last = time.perf_counter()
        if done.returncode != 0:
            self.errors.append(done.stderr.strip().splitlines()[-1:])
        else:
            self.times.append(self._last - started)

    def _remaining(self):
        return SETUP_PROBES - len(self.times) - len(self.errors)

    def maybe(self):
        if (self._remaining() > 0
                and time.perf_counter() - self._last >= self.interval):
            self._probe()

    def finish(self):
        while self._remaining() > 0:
            self._probe()


def max_rss_mb(who) -> float:
    """``ru_maxrss`` of this process or of its largest waited-for
    child, in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def host_info():
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def events_per_pkt(result) -> float:
    counters = result["counters"].values()
    frames = sum(c["frames"] for c in counters)
    return sum(c["events"] for c in counters) / frames if frames else 0.0


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------
def timed_run(workload, points, seed, seconds, capture):
    from points import PASS_SECONDS
    count = max(1, int(seconds // PASS_SECONDS[workload]))
    failures = warm_up(points, capture)
    passes = [run_pass(points, capture)]
    # Shard workers are the only children until the first probe.
    worker_rss = max_rss_mb(resource.RUSAGE_CHILDREN)
    probes = SetupProbes(workload, seed,
                         span=(count - 1) * PASS_SECONDS[workload])
    while len(passes) < count:
        passes.append(run_pass(points, capture, between=probes.maybe))
    probes.finish()
    rss = max_rss_mb(resource.RUSAGE_SELF) + worker_rss
    setups, setup_errors = probes.times, probes.errors

    failed = len(failures) + len(setup_errors)
    pass_failures = []
    for result in passes:
        failing = check_pass(workload, points, seed, result)
        failed += len(failing)
        pass_failures.append(failing)
    # Same seed, same outputs and counts: a pass that differs from the
    # first is nondeterministic, and every point of it counts failed.
    reference = _deterministic_view(passes[0])
    for index, result in enumerate(passes[1:], start=1):
        if _deterministic_view(result) != reference:
            failed += len(points)
            pass_failures[index]["*"] = "outputs differ from pass 0"
    attempted = len(points) * len(passes) + len(points) + SETUP_PROBES

    # Each point's fastest pass: on a shared machine other processes
    # only ever add time, so the minimum is the steady estimate of a
    # point's own cost (the rule ``timeit`` uses).  Medians are in the
    # detail line.
    best = {p.name: min(r["walls"][p.name] for r in passes)
            for p in points}
    walls = [sum(p["walls"].values()) for p in passes]
    metrics = {
        "wall_s": metric(sum(best.values()), "s"),
        "point_max_s": metric(max(best.values()), "s"),
        "setup_s": metric(statistics.median(setups) if setups
                          else float(SETUP_PROBE_TIMEOUT_S), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "events_per_pkt": metric(events_per_pkt(passes[0]),
                                 "events/pkt"),
        "pass_frac": metric((attempted - failed) / attempted,
                            "fraction"),
    }
    detail = {
        "workload": workload, "seed": seed, "host": host_info(),
        "passes": len(passes), "pass_walls_s": walls,
        "median_pass_wall_s": statistics.median(walls),
        "setup_probes_s": setups,
        "point_best_s": best,
        "point_median_s": {p.name: statistics.median(
            r["walls"][p.name] for r in passes) for p in points},
        "failures": {"warm_up": failures, "setup": setup_errors,
                     "passes": pass_failures},
    }
    return failed, attempted, metrics, detail


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------
def traced_run(workload, points, seed, capture):
    from instrument import LAYERS, LayerProfile
    failures = warm_up(points, capture)
    plain = run_pass(points, capture)
    profile = LayerProfile(ROOT / ".perfbench_scratch")
    try:
        with profile:
            traced = run_pass(points, capture, call=profile.call)
        layers, profiled_total, workers = profile.layers()
    finally:
        profile.cleanup()
    sharded = [p for p in points if p.shards > 1]
    companion = run_pass(sharded, capture, overrides={"shards": 1})

    checks = [check_pass(workload, points, seed, plain),
              check_pass(workload, points, seed, traced)]
    if _deterministic_view(traced) != _deterministic_view(plain):
        checks[1]["*"] = "traced outputs differ from the plain pass"
    # Results are shard-count invariant, and every profiled function
    # sits in exactly one layer.
    cross = dict(companion["errors"])
    for point in sharded:
        one = companion["outputs"].get(point.name, {})
        two = plain["outputs"].get(point.name, {})
        if any(one.get(k) != two.get(k) for k in point.pins):
            cross[point.name] = "1-shard outputs differ from 2-shard"
    layer_sum = sum(self_s for self_s, _ in layers.values())
    if abs(layer_sum - profiled_total) > 1e-6 * max(1.0, profiled_total):
        cross["layers"] = (f"layer self times sum to {layer_sum}, "
                           f"profiled total {profiled_total}")
    failed = len(failures) + sum(len(c) for c in checks) + len(cross)
    attempted = 3 * len(points) + len(sharded)

    counters = plain["counters"].values()
    outputs = plain["outputs"].values()
    total = {key: sum(c[key] for c in counters)
             for key in ("events", "rounds", "sync_frames", "skipped",
                         "grants", "serialization_s")}

    def out_sum(*keys):
        return sum(o.get(k, 0) or 0 for o in outputs for k in keys)

    # Server-core time from in-process runs only: shard workers keep
    # their hosts, so sharded points use the one-shard companion.
    cores = [companion["cores"] if p.shards > 1 else plain["cores"]
             for p in points]
    core_time = {key: sum(c.get(p.name, {}).get(key, 0.0)
                          for c, p in zip(cores, points))
                 for key in ("elapsed", "intr", "idle")}
    offered = delivered = 0.0
    for point in points:
        if point.rates and point.name in plain["outputs"]:
            out = plain["outputs"][point.name]
            offered += out[point.rates[0]]
            delivered += out[point.rates[1]]
    plain_wall = sum(plain["walls"].values())
    sharded_wall = sum(plain["walls"][p.name] for p in sharded)
    one_shard_wall = sum(companion["walls"].values())

    metrics = {}
    for layer in LAYERS:
        self_s, calls = layers[layer]
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.calls"] = metric(calls, "count")
    elapsed = core_time["elapsed"] or 1.0
    metrics.update({
        "profiled_s": metric(profiled_total, "s"),
        "engine.events": metric(total["events"], "count"),
        "engine.sharded.rounds": metric(total["rounds"], "count"),
        "engine.sharded.frames": metric(total["sync_frames"], "count"),
        "engine.sharded.skipped_frac": metric(
            total["skipped"] / total["grants"] if total["grants"]
            else 0.0, "fraction"),
        "engine.sharded.serialization_s": metric(
            total["serialization_s"], "s"),
        "engine.sharded.speedup_vs_1": metric(
            one_shard_wall / sharded_wall if sharded else 1.0, "x"),
        "host.intr_frac": metric(core_time["intr"] / elapsed,
                                 "fraction"),
        "host.idle_frac": metric(core_time["idle"] / elapsed,
                                 "fraction"),
        "nic.drops": metric(out_sum("drop_nic_fifo", "drop_nic_ring"),
                            "count"),
        "core.delivered_frac": metric(
            delivered / offered if offered else 0.0, "fraction"),
        "core.drops_after_work": metric(
            out_sum("drop_ipq", "drop_sockq"), "count"),
        "proto.syn_in": metric(out_sum("syn_in"), "count"),
        "proto.established": metric(out_sum("established"), "count"),
        "net.wire_drops": metric(out_sum("drop_wire"), "count"),
        "net.switch_drops": metric(out_sum("drop_switch"), "count"),
        "mem.mbuf_drops": metric(out_sum("drop_mbufs"), "count"),
        "trace_overhead_frac": metric(
            sum(traced["walls"].values()) / plain_wall - 1.0,
            "fraction"),
    })
    detail = {
        "workload": workload, "seed": seed, "host": host_info(),
        "profiled_workers": workers,
        "plain_walls_s": plain["walls"],
        "traced_walls_s": traced["walls"],
        "one_shard_walls_s": companion["walls"],
        "failures": {"warm_up": failures, "plain": checks[0],
                     "traced": checks[1], "cross_checks": cross},
    }
    return failed, attempted, metrics, detail


def write_pins(workload, points, capture):
    from points import PINNED_PATH, load_pins, pin_values
    warm_up(points, capture)
    result = run_pass(points, capture)
    if result["errors"]:
        sys.exit(f"perfbench: cannot pin, points failed: "
                 f"{result['errors']}")
    pinned = load_pins()
    pinned[workload] = pin_values(points, result["outputs"])
    PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                           + "\n")
    print(f"pinned {len(points)} points of {workload} "
          f"in {PINNED_PATH.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("udp_blast", "tcp_http",
                                 "incast_sharded"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite this workload's pinned outputs "
                             "from one pass at the default seed")
    args = parser.parse_args(argv)

    import_simulator()
    from instrument import Capture
    from points import DEFAULT_SEED, WORKLOADS

    capture = Capture()
    capture.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if args.pin:
            write_pins(args.workload, WORKLOADS[args.workload](
                DEFAULT_SEED), capture)
            return 0
        points = WORKLOADS[args.workload](args.seed)
        if args.trace:
            failed, attempted, metrics, detail = traced_run(
                args.workload, points, args.seed, capture)
        else:
            failed, attempted, metrics, detail = timed_run(
                args.workload, points, args.seed, args.seconds, capture)
    finally:
        capture.uninstall()
    print(json.dumps(detail, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
