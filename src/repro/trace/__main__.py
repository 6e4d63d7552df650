"""Trace tooling CLI: ``python -m repro.trace <command>``.

Commands
--------
``record``
    Run an architecture's canonical golden workload with tracing
    enabled and write the full JSONL trace.
``digest``
    Print the digest of a canonical run: the behaviour digest (counts
    + order hash over every non-engine record) and the engine-event
    count.
``check``
    Re-run every golden workload and compare against the digests
    checked into ``tests/golden/``; names whether the behaviour
    digest or the ``engine_events`` count drifted, and exits non-zero
    for either.
``regen``
    Regenerate the golden digest files (after an intentional change).
``diff``
    Compare two JSONL traces: the first diverging behaviour record,
    and each side's engine-event count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace import diff as trace_diff
from repro.trace import golden


def _cmd_record(args) -> int:
    tracer = golden.run_golden_workload(args.arch)
    n = tracer.dump_jsonl(args.output)
    print(f"{args.arch}: wrote {n} records to {args.output}")
    return 0


def _cmd_digest(args) -> int:
    arches = golden.GOLDEN_ARCHES if args.arch == "all" else (args.arch,)
    for arch in arches:
        print(json.dumps(golden.golden_digest(arch), sort_keys=True))
    return 0


def _cmd_check(args) -> int:
    failed = False
    for arch in golden.GOLDEN_ARCHES:
        try:
            result = golden.check_golden(arch, args.golden_dir)
        except FileNotFoundError:
            print(f"{arch}: MISSING golden file "
                  f"({golden.golden_path(arch, args.golden_dir)}); "
                  f"run `python -m repro.trace regen`")
            failed = True
            continue
        exp, act = result["expected"], result["actual"]
        if result["ok"]:
            print(f"{arch}: OK ({act['n']} records, "
                  f"hash {act['order_hash'][:12]}..., "
                  f"{act['engine_events']} engine events)")
            continue
        failed = True
        if not result["behaviour_ok"]:
            print(f"{arch}: BEHAVIOUR DIGEST DRIFT")
            print(f"  expected: n={exp.get('n')} "
                  f"hash={exp.get('order_hash')}")
            print(f"  actual:   n={act.get('n')} "
                  f"hash={act.get('order_hash')}")
            exp_counts = exp.get("counts", {})
            act_counts = act.get("counts", {})
            for etype in sorted(set(exp_counts) | set(act_counts)):
                e, a = exp_counts.get(etype, 0), act_counts.get(etype, 0)
                if e != a:
                    print(f"  counts[{etype}]: expected {e}, actual {a}")
            print(f"  to localize: `python -m repro.trace record "
                  f"--arch {arch} -o new.jsonl` against a known-good "
                  f"trace, then `python -m repro.trace diff old.jsonl "
                  f"new.jsonl`")
        if not result["engine_ok"]:
            note = (" (behaviour unchanged)" if result["behaviour_ok"]
                    else "")
            print(f"{arch}: ENGINE EVENTS DRIFT: expected "
                  f"{exp.get('engine_events')}, actual "
                  f"{act['engine_events']}{note}")
    return 1 if failed else 0


def _cmd_regen(args) -> int:
    for arch in golden.GOLDEN_ARCHES:
        payload = golden.write_golden(arch, args.golden_dir)
        print(f"{arch}: n={payload['n']} "
              f"hash={payload['order_hash'][:12]}... "
              f"engine_events={payload['engine_events']} -> "
              f"{golden.golden_path(arch, args.golden_dir)}")
    return 0


def _cmd_diff(args) -> int:
    index, report = trace_diff.diff_files(args.trace_a, args.trace_b,
                                          context=args.context)
    print(report)
    return 0 if index is None else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.trace",
        description="Golden-trace tooling for the LRP reproduction.")
    sub = parser.add_subparsers(dest="command", required=True)

    arch_choices = list(golden.GOLDEN_ARCHES)

    p = sub.add_parser("record", help="write a canonical run's JSONL")
    p.add_argument("--arch", choices=arch_choices, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("digest", help="print canonical-run digests")
    p.add_argument("--arch", choices=arch_choices + ["all"],
                   default="all")
    p.set_defaults(func=_cmd_digest)

    p = sub.add_parser("check", help="verify golden digests")
    p.add_argument("--golden-dir", default=None)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("regen", help="regenerate golden digests")
    p.add_argument("--golden-dir", default=None)
    p.set_defaults(func=_cmd_regen)

    p = sub.add_parser("diff",
                       help="first diverging record of two traces")
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.add_argument("--context", type=int, default=3)
    p.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
