"""Command-line entry point: ``python -m repro.experiments <name>``.

Runs one (or all) of the paper's experiments and prints the same
rows/series the paper reports.  ``list`` enumerates the experiments
with one-line descriptions.  ``--fast`` shrinks sweep sizes and
measurement windows for quick checks; the full runs are what
EXPERIMENTS.md records.

Sweeps execute through :class:`repro.runner.SweepRunner`:
``--parallel N`` fans independent points across N worker processes,
``--cache`` memoizes completed points on disk (content-addressed; see
docs/RUNNING.md for the invalidation rules), and ``--results-json``
writes a machine-readable record of the run — per-point parameters,
results, wall-clock and cache disposition — alongside the printed
tables.

Each experiment module declares its sweep and its report, and this
module alone runs them.  ``sections(**flags)`` returns the module's
:class:`~repro.experiments.common.Section` list, taking as keywords
the flags named in its optional ``FLAGS`` tuple (``"shards"``,
``"cores"``).  :func:`run_sections` picks each section's full or fast
grid and runs it through the :class:`~repro.runner.SweepRunner`, and
``report(*points)`` renders one text report from each section's
``(kwargs, result)`` pairs, in declaration order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro import __version__
from repro.runner import (
    ResultCache,
    SweepRunner,
    default_cache_dir,
)
from repro.trace import Tracer, set_default_tracer
from repro.experiments.common import Section
from repro.experiments import (
    ablations,
    cluster,
    degradation,
    figure3,
    figure4,
    figure5,
    sensitivity,
    table1,
    table2,
)

EXPERIMENT_MODULES = {
    "table1": table1,
    "figure3": figure3,
    "figure4": figure4,
    "table2": table2,
    "figure5": figure5,
    "ablations": ablations,
    "sensitivity": sensitivity,
    "degradation": degradation,
    "cluster": cluster,
}

#: The flags an experiment may declare in ``FLAGS``, with the note
#: printed when one is set for an experiment that does not.
FLAG_FALLBACKS = {"shards": "running sequentially",
                  "cores": "running single-core"}


def section_grid(section: Section, fast: bool) -> List[Dict[str, Any]]:
    """The keyword arguments of each of *section*'s points, in product
    order."""
    values = {**section.axes, **section.fixed,
              **(section.fast if fast else {})}
    fixed = {name: value for name, value in values.items()
             if name not in section.axes}
    grid = []
    for combo in itertools.product(*(values[name]
                                     for name in section.axes)):
        kwargs: Dict[str, Any] = {}
        for name, value in zip(section.axes, combo):
            kwargs.update(zip(name, value) if isinstance(name, tuple)
                          else [(name, value)])
        grid.append({**kwargs, **fixed})
    return grid


def run_sections(sections: Sequence[Section], runner: SweepRunner,
                 fast: bool = False) -> List[List[Tuple[Dict, Any]]]:
    """Each section's ``(kwargs, result)`` pairs, in declaration order;
    a section whose grid is empty runs nothing."""
    out = []
    for section in sections:
        grid = section_grid(section, fast)
        results = (runner.map(section.fn, grid, label=section.label)
                   if grid else [])
        out.append(list(zip(grid, results)))
    return out


def describe(name: str) -> str:
    """One-line description: the experiment module's docstring head."""
    doc = EXPERIMENT_MODULES[name].__doc__ or ""
    first = doc.strip().splitlines()[0].rstrip(".") if doc.strip() else ""
    return first


def _experiment_listing() -> str:
    width = max(len(name) for name in EXPERIMENT_MODULES)
    lines = [f"  {name.ljust(width)}  {describe(name)}"
             for name in sorted(EXPERIMENT_MODULES)]
    return "\n".join(lines)


def list_experiments() -> None:
    print("available experiments:")
    print(_experiment_listing())
    print("\nrun one with: python -m repro.experiments <name> "
          "[--fast] [--parallel N] [--cache]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrp-experiments",
        description="Reproduce the LRP paper's tables and figures.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=("experiments:\n" + _experiment_listing() + "\n\n"
                "special names:\n"
                "  all     run every experiment\n"
                "  list    print the experiment names and exit\n\n"
                "see docs/RUNNING.md for the full tour"))
    parser.add_argument("experiment", metavar="EXPERIMENT",
                        help="an experiment name, 'all', or 'list'")
    parser.add_argument("--fast", action="store_true",
                        help="smaller sweeps / shorter windows")
    parser.add_argument("--parallel", metavar="N", type=int, default=0,
                        help="fan sweep points across N worker "
                             "processes (default: serial)")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction,
                        default=False,
                        help="memoize completed sweep points on disk "
                             "so re-runs are instant (default: off)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-lrp)")
    parser.add_argument("--results-json", metavar="OUT.JSON",
                        default=None,
                        help="write a machine-readable record of the "
                             "run (per-point params, results, "
                             "wall-clock, cache hits) to this file")
    parser.add_argument("--point-timeout", metavar="SEC", type=float,
                        default=None,
                        help="per-point wall-clock budget in seconds; "
                             "a point exceeding it fails instead of "
                             "wedging the sweep")
    parser.add_argument("--trace", metavar="OUT.JSONL", default=None,
                        help="stream an event trace of every simulated "
                             "run to this JSONL file (see "
                             "docs/TRACING.md); forces a serial, "
                             "uncached sweep")
    parser.add_argument("--shards", metavar="N", type=int, default=1,
                        help="partition each simulated scenario into "
                             "N shards under conservative time sync, "
                             "run in-process (a partition-parity "
                             "tool, not a speedup; see docs/PDES.md); "
                             "only cluster honors it, others note "
                             "the fallback and run sequentially")
    parser.add_argument("--cores", metavar="N", type=int, default=1,
                        help="give each server host N cores; "
                             "N >= 2 widens figure3/degradation "
                             "to the six-architecture comparison (RSS, "
                             "polling, NIC-OS; see "
                             "docs/ARCHITECTURES.md); experiments "
                             "without multi-core support note the "
                             "fallback and run single-core")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.experiment == "list":
        list_experiments()
        return 0
    if args.experiment != "all" \
            and args.experiment not in EXPERIMENT_MODULES:
        parser.error(
            f"unknown experiment {args.experiment!r}\n\n"
            "available experiments:\n" + _experiment_listing() + "\n\n"
            "(or 'all'; 'python -m repro.experiments list' shows "
            "this too)")

    tracer = None
    if args.trace is not None:
        if args.parallel > 1 or args.cache:
            print("note: --trace forces a serial, uncached sweep so "
                  "the trace observes every event", file=sys.stderr)
        tracer = Tracer()
        try:
            tracer.open_sink(args.trace)
        except OSError as exc:
            parser.error(f"cannot open trace file: {exc}")
        set_default_tracer(tracer)

    cache = None
    if args.cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    runner = SweepRunner(workers=args.parallel, cache=cache,
                         progress=True,
                         point_timeout_sec=args.point_timeout)

    names = sorted(EXPERIMENT_MODULES) if args.experiment == "all" \
        else [args.experiment]
    started_unix = time.time()
    started = time.monotonic()
    experiment_log = {}
    try:
        for name in names:
            print(f"\n##### {name} #####")
            exp_started = time.monotonic()
            module = EXPERIMENT_MODULES[name]
            flags = {}
            for flag, fallback in FLAG_FALLBACKS.items():
                value = getattr(args, flag)
                if value <= 1:
                    continue
                if flag in getattr(module, "FLAGS", ()):
                    flags[flag] = value
                else:
                    print(f"note: {name} does not support --{flag}; "
                          f"{fallback}", file=sys.stderr)
            text = module.report(*run_sections(
                module.sections(**flags), runner, args.fast))
            print(text)
            experiment_log[name] = {
                "wall_clock_sec": round(
                    time.monotonic() - exp_started, 3),
                "report": text,
            }
    finally:
        if tracer is not None:
            set_default_tracer(None)
            tracer.close()
            print(f"\ntrace written to {args.trace}")
        if args.results_json is not None:
            _write_results(args, names, runner, experiment_log,
                           started_unix,
                           time.monotonic() - started)
    if runner.failed:
        for descriptor in runner.failed:
            print(f"FAILED point: {descriptor['label']} — "
                  f"{descriptor['error']}", file=sys.stderr)
        print(f"{len(runner.failed)} sweep point(s) failed",
              file=sys.stderr)
        return 1
    return 0


def _write_results(args, names, runner: SweepRunner, experiment_log,
                   started_unix: float, elapsed_sec: float) -> None:
    payload = {
        "version": __version__,
        "invocation": {
            "experiment": args.experiment,
            "fast": args.fast,
            "parallel": args.parallel,
            "cache": args.cache,
            "point_timeout": args.point_timeout,
            "trace": args.trace is not None,
            "shards": args.shards,
            "cores": args.cores,
        },
        "started_unix": started_unix,
        "wall_clock_sec": round(elapsed_sec, 3),
        "experiments": experiment_log,
        "sweep": runner.summary(),
        "points": runner.points_log,
    }
    with open(args.results_json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"results written to {args.results_json}", file=sys.stderr)

