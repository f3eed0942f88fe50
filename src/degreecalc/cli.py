"""Command-line interface.

Subcommands::

    compute "<expr> -> <expr>"      print the degree set or bounds, with trace
    realize arith (--progression start:step:count | --intervals "b1,c1;b2,c2;...")
    realize subset-sums --values a,b,c
    realize geom --values d1,d2,...
    verify <certificate.json>

``realize`` writes certificate JSON to ``--out`` (stdout by default).
Exit codes: 0 success, 1 failed verification, 2 usage or input error,
3 internal error.  A closed stdout ends the process by SIGPIPE, as it does
``cat``.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Optional, Sequence

from . import realiser, verify
from .dsl import ParseError, SemanticError, parse_expr, print_expr
from .engine import DimensionMismatch, degree_bounds
from .intset import IntegerOverflow
from .manifold import MalformedExpr
from .realiser import (
    ArithIntervals,
    Geometric,
    InvalidSpec,
    SubsetSums,
    certificate_from_json,
    certificate_to_json,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1
INTERNAL_ERROR = 3


class _UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degreecalc",
        description="Degree sets of maps between manifolds built from circle "
        "bundles, connected sums and products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a degree set or bounds")
    p_compute.add_argument("pair", help='source and target, e.g. "K(2;2) -> K(2;6)"')

    p_realize = sub.add_parser("realize", help="construct a certified realisation")
    realize_sub = p_realize.add_subparsers(dest="family", required=True)

    p_arith = realize_sub.add_parser("arith", help="arithmetic sequence of intervals")
    group = p_arith.add_mutually_exclusive_group(required=True)
    group.add_argument("--progression", help="start:step:count, e.g. 0:4:3")
    group.add_argument("--intervals", help='semicolon-separated "b,c" pairs')
    p_arith.add_argument("--out", help="certificate output path (default stdout)")

    p_subset = realize_sub.add_parser("subset-sums", help="all subset sums of a list")
    p_subset.add_argument("--values", required=True, help="comma-separated integers")
    p_subset.add_argument("--out", help="certificate output path (default stdout)")

    p_geom = realize_sub.add_parser("geom", help="{0,1} plus all subset products")
    p_geom.add_argument("--values", required=True, help="comma-separated integers >= 1")
    p_geom.add_argument("--out", help="certificate output path (default stdout)")

    p_verify = sub.add_parser("verify", help="check a certificate file")
    p_verify.add_argument("certificate", help="path to certificate JSON")
    p_verify.add_argument("--json", action="store_true", help="emit the report as JSON")

    return parser


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"not a comma-separated integer list: {text!r}") from exc


def _parse_intervals(text: str) -> ArithIntervals:
    bounds = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise _UsageError(f"interval {chunk!r} is not of the form b,c")
        try:
            bounds.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise _UsageError(f"interval {chunk!r} has non-integer bounds") from exc
    return ArithIntervals(tuple(bounds))  # the spec rejects an empty or invalid sequence


def _parse_progression(text: str) -> ArithIntervals:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"progression {text!r} is not start:step:count")
    try:
        start, step, count = (int(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"progression {text!r} has non-integer fields") from exc
    if step <= 0 and count > 1:  # rejected before a list of count values is built
        raise _UsageError("progression step must be positive")
    values = [start + i * step for i in range(count)]
    return ArithIntervals(tuple((v, v) for v in values))  # the spec rejects a count < 1


def _cmd_compute(args: argparse.Namespace) -> int:
    parts = args.pair.split("->")
    if len(parts) != 2:
        raise _UsageError('compute expects "<expr> -> <expr>"')
    m = parse_expr(parts[0])
    n = parse_expr(parts[1])
    bound = degree_bounds(m, n)
    if bound.exact:
        print(f"exact {bound.lower}")
    else:
        print(f"lower {bound.lower}")
        print(f"upper {bound.upper if bound.upper is not None else 'unknown'}")
    print("trace:")
    for entry in bound.trace:
        inputs = ", ".join(print_expr(x) for x in entry.inputs)
        mark = " (lower truncated to units)" if entry.detail("lower_truncated_to_units") else ""
        print(f"  {entry.rule}: {inputs} => {entry.produced}{mark}")
    return 0


def _cmd_realize(args: argparse.Namespace) -> int:
    if args.family == "arith":
        if args.progression is not None:
            spec = _parse_progression(args.progression)
        else:
            spec = _parse_intervals(args.intervals)
        cert = realiser.realise_arith_intervals(spec)
    elif args.family == "subset-sums":
        cert = realiser.realise_subset_sums(SubsetSums(tuple(_parse_ints(args.values))))
    else:
        cert = realiser.realise_geometric(Geometric(tuple(_parse_ints(args.values))))

    text = certificate_to_json(cert)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write certificate: {exc}") from exc
        print(f"target {cert.target}")
        print(f"certificate written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            cert = certificate_from_json(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read certificate: {exc}") from exc
    report = verify.check_certificate(cert)
    if args.json:
        print(realiser.json_text(report.to_jsonable()))
    else:
        print(report.to_text())
    return 0 if report.ok else VERIFY_FAILURE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "realize":
            return _cmd_realize(args)
        return _cmd_verify(args)
    except (
        _UsageError,
        ParseError,
        SemanticError,
        MalformedExpr,
        InvalidSpec,
        DimensionMismatch,
        IntegerOverflow,
        verify.MalformedCertificate,
        verify.EnumerationTooLarge,
        verify.InvalidEnumCap,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        # a bare MemoryError() has no message; name the exception instead
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return INTERNAL_ERROR


def console_main() -> None:
    # not in main, which tests and probes call in process
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
