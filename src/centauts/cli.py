"""Command-line interface: analyze, scan, sweep-lemma4, list-catalog."""

from __future__ import annotations

import argparse
import os
import sys

from .automorphisms import DEFAULT_SEARCH_BUDGET
from .corpus import (
    CHECK_NAMES,
    PER_GROUP_CHECKS,
    RunConfig,
    analyze_group,
    catalog,
    emit_report,
    has_failures,
    is_prime,
    parse_group_file,
    scan_corpus,
)
from .errors import CentautsError, ConfigError, NotNilpotent
from .theory import verify_lemma4_sweep

# The sweep's triple count grows about sixfold per two steps of --max-exp
# (115231 at 10, 678912 at 12); 12 takes about 0.3 s per prime, process start
# included and about 3 ms of it the sweep, on a 2-vCPU Intel Xeon VM.
MAX_SWEEP_EXP = 12


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centauts",
        description="Analyze central automorphisms of small finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run checks on one catalog name or group file")
    analyze.add_argument("group", help="catalog name or path to a group JSON file")
    analyze.add_argument(
        "--check", action="append", choices=PER_GROUP_CHECKS, default=None,
        help="check to run (repeatable; default: all per-group checks)",
    )
    analyze.add_argument("--format", choices=("json", "csv"), default="json")
    analyze.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)

    scan = sub.add_parser("scan", help="run checks over the built-in catalog")
    scan.add_argument("--max-order", type=int, default=RunConfig.max_order)
    scan.add_argument(
        "--prime", action="append", type=int, default=None,
        help=f"prime to include (repeatable; default: {' '.join(map(str, RunConfig.primes))})",
    )
    scan.add_argument(
        "--check", action="append", choices=CHECK_NAMES, default=None,
        help="check to run (repeatable; default: all)",
    )
    scan.add_argument("--format", choices=("json", "csv"), default="json")
    scan.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    scan.add_argument("--cache-dir", default=None)

    sweep = sub.add_parser("sweep-lemma4", help="exhaustive Hom-growth threshold sweep")
    sweep.add_argument("--prime", type=int, required=True)
    sweep.add_argument("--max-exp", type=int, required=True, help=f"in [1, {MAX_SWEEP_EXP}]")

    sub.add_parser("list-catalog", help="list the built-in groups")
    return parser


def _cmd_analyze(args) -> int:
    entries = catalog()
    if args.group in entries:
        group = entries[args.group]()
    elif os.path.exists(args.group):
        group = parse_group_file(args.group)
    else:
        print(f"error: {args.group!r} is neither a catalog name nor a file", file=sys.stderr)
        return 2
    checks = tuple(args.check) if args.check else PER_GROUP_CHECKS
    report = analyze_group(group, checks, args.budget)
    sys.stdout.write(emit_report([report], args.format))
    return 1 if has_failures([report]) else 0


def _cmd_scan(args) -> int:
    cfg = RunConfig(
        max_order=args.max_order,
        primes=tuple(args.prime) if args.prime else RunConfig.primes,
        checks=tuple(args.check) if args.check else CHECK_NAMES,
        cache_dir=args.cache_dir,
        budget=args.budget,
    )
    reports = scan_corpus(cfg)
    sys.stdout.write(emit_report(reports, args.format))
    return 1 if has_failures(reports) else 0


def _cmd_sweep(args) -> int:
    if not is_prime(args.prime):
        raise ConfigError(f"--prime must be a prime, got {args.prime}")
    if not 1 <= args.max_exp <= MAX_SWEEP_EXP:
        raise ConfigError(f"--max-exp must be within [1, {MAX_SWEEP_EXP}], got {args.max_exp}")
    sweep = verify_lemma4_sweep(args.prime, args.max_exp)
    status = "agree" if sweep.agree else "COUNTEREXAMPLE"
    print(
        f"prime={sweep.prime} maxExp={sweep.max_exp} "
        f"triples={sweep.triples_checked} verdict={status}"
    )
    for failure in sweep.failures:
        print(f"  failure: {failure}")
    return 0 if sweep.agree else 1


def _cmd_list_catalog() -> int:
    for name, make in catalog().items():
        group = make()
        prime = group.p_group_prime()
        try:
            klass = group.nilpotency_class()
        except NotNilpotent:
            klass = None
        print(
            f"{name:<12} order={group.n:<4} prime={prime if prime else '-':<3} "
            f"class={klass if klass is not None else '-'}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "sweep-lemma4":
            return _cmd_sweep(args)
        if args.command == "list-catalog":
            return _cmd_list_catalog()
    except CentautsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
